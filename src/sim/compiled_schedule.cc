#include "sim/compiled_schedule.hh"

#include "util/logging.hh"

namespace memsec {

CompiledMode
parseCompiledMode(const std::string &text)
{
    if (text == "off")
        return CompiledMode::Off;
    if (text == "on")
        return CompiledMode::On;
    fatal("sim.compiled: unknown mode '{}' (expected off|on)", text);
}

} // namespace memsec
