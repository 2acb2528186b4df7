#include "sim/compiled_schedule.hh"

#include <sstream>

#include "util/logging.hh"

namespace memsec {

CompiledMode
parseCompiledMode(const std::string &text)
{
    if (text == "off")
        return CompiledMode::Off;
    if (text == "on")
        return CompiledMode::On;
    if (text == "verify")
        return CompiledMode::Verify;
    fatal("sim.compiled: unknown mode '{}' (expected off|on|verify)",
          text);
}

const char *
toString(CompiledMode mode)
{
    switch (mode) {
      case CompiledMode::Off:
        return "off";
      case CompiledMode::On:
        return "on";
      case CompiledMode::Verify:
        return "verify";
    }
    return "?";
}

std::string
CompiledSchedule::describe() const
{
    std::ostringstream os;
    if (!valid) {
        os << "compiled-schedule: invalid (" << note << ")";
        return os.str();
    }
    unsigned phantoms = 0;
    for (const auto &slot : slots)
        phantoms += slot.phantom ? 1 : 0;
    os << "compiled-schedule: l=" << l << " lead=" << lead << " slots="
       << slots.size() << " (phantom " << phantoms << ") frame="
       << frameCycles() << " hyperperiod=" << hyperperiod
       << " pairsChecked=" << pairsChecked;
    return os.str();
}

} // namespace memsec
