/**
 * @file
 * memsec benchmark binary. run.py builds and calls it; it can also
 * be run by hand:
 *
 *   perfbench provenance
 *   perfbench reference --workload W --seeds a,b [--smoke]
 *   perfbench measure --workload W --seeds a,b --refs h1,h2
 *                     --seconds T --trace 0|1 [--smoke] [--wrong-mirror]
 *
 * `reference` runs each experiment once on the naive interpreted
 * loop (sim.fastforward=false, sim.compiled=off) and prints its
 * digest. `measure` runs a serial batch of experiments, cycling
 * through the seeds, until T seconds have passed and every seed ran
 * once. With --trace 0 it times the public harness API only; with
 * --trace 1 it pairs each untraced harness run with a traced mirror
 * run (mirror.hh) of the same Config and checks their stats dumps
 * are byte-identical. Every experiment's resultDigest() is checked
 * against the reference of its seed.
 *
 * Output is one JSON object per line, tagged EXP, TRACE, REF, PROV
 * or END; run.py aggregates them.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "mirror.hh"
#include "util/logging.hh"

namespace {

using namespace memsec;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One benchmark workload: a fixed design point, varied by seed. */
struct Workload
{
    const char *name;
    const char *scheme;
    const char *mix;
    bool compiled;   ///< sim.compiled=on
    bool mustReplay; ///< a run that replays no command has failed
    bool refresh;    ///< dram.refresh
    bool openLoop;   ///< traffic.process=mmpp
};

// Each experiment is figure-length: the harness's default warmup,
// measurement window and functional LLC warmup. fs_refresh_mix2 asks
// for replay but does not require it: the FS planner declines refresh
// and power-down today, and may learn to replay them.
const Workload kWorkloads[] = {
    {"frfcfs_mcf", "baseline", "mcf", false, false, false, false},
    {"fs_rp_compiled", "fs_rp", "mcf", true, true, false, false},
    {"fs_refresh_mix2", "fs_rp_powerdown", "mix2", true, false, true, false},
    {"cloud_mmpp", "fs_rp", "cloud", true, true, false, true},
};

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    fatal("unknown workload '{}'", name);
}

Config
experimentConfig(const Workload &w, uint64_t seed, bool smoke)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig(w.scheme));
    c.set("workload", w.mix);
    c.set("seed", seed);
    c.set("sim.shards", 1);
    c.set("sim.fastforward", true);
    c.set("sim.compiled", w.compiled ? "on" : "off");
    c.set("dram.refresh", w.refresh);
    if (w.openLoop)
        c.set("traffic.process", "mmpp");
    if (smoke) {
        c.set("sim.measure", 20000);
        c.set("core.functional_warmup", 20000);
    }
    return c;
}

/** The digest anchor: naive loop, interpreted schedule. */
Config
referenceConfig(const Workload &w, uint64_t seed, bool smoke)
{
    Config c = experimentConfig(w, seed, smoke);
    c.set("sim.fastforward", false);
    c.set("sim.compiled", "off");
    return c;
}

/** FNV-1a 64 of harness::resultDigest(), as 16 hex digits. */
std::string
digestOf(const harness::ExperimentResult &r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : harness::resultDigest(r))
        h = (h ^ ch) * 0x100000001b3ull;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Minimal one-line JSON object writer. */
class JsonLine
{
  public:
    explicit JsonLine(const char *tag) : tag_(tag) {}
    JsonLine &num(const std::string &k, double v)
    {
        return raw(k, jsonNumber(v));
    }
    JsonLine &str(const std::string &k, const std::string &v)
    {
        return raw(k, jsonString(v));
    }
    JsonLine &boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    JsonLine &raw(const std::string &k, const std::string &v)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += jsonString(k);
        body_ += ':';
        body_ += v;
        return *this;
    }
    std::string object() const { return "{" + body_ + "}"; }
    void print() const { std::cout << tag_ << " " << object() << std::endl; }

  private:
    const char *tag_;
    std::string body_;
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ','))
        out.push_back(tok);
    return out;
}

/** Why a finished run counts as failed; empty when it passed. */
std::string
failureOf(const Workload &w, const harness::ExperimentResult &r,
          const std::string &digest, const std::string &expected)
{
    if (!r.simErrors.empty())
        return "SimError " + r.simErrors.front().category + ": " +
               r.simErrors.front().message;
    if (r.timingViolations > 0 || r.illegalIssues > 0)
        return "TimingChecker violations=" +
               std::to_string(r.timingViolations) +
               " illegal=" + std::to_string(r.illegalIssues);
    if (digest != expected)
        return "resultDigest " + digest + " != reference " + expected;
    if (w.mustReplay && r.compiledCommands == 0)
        return "declared compiled replay but replayed 0 commands";
    return "";
}

/** One experiment's result and host times, in seconds. */
struct Measured
{
    harness::ExperimentResult result;
    double setup = 0, step = 0, run = 0;
};

/** One untraced experiment through the public harness API only. */
Measured
runHarness(const Config &cfg)
{
    Measured t;
    const auto t0 = Clock::now();
    harness::ExperimentSystem sys(cfg);
    t.setup = since(t0);
    const auto t1 = Clock::now();
    while (!sys.done())
        sys.step(kNoCycle);
    t.step = since(t1);
    t.result = sys.finish();
    t.run = since(t0);
    return t;
}

void
printExperiment(uint64_t seed, const Measured &t,
                const std::string &digest, const std::string &expected,
                const std::string &failure)
{
    const harness::ExperimentResult &r = t.result;
    JsonLine("EXP")
        .num("seed", static_cast<double>(seed))
        .num("setup_s", t.setup)
        .num("step_s", t.step)
        .num("run_s", t.run)
        .num("cycles", static_cast<double>(r.cyclesRun))
        .num("executed", static_cast<double>(r.cyclesExecuted))
        .num("skipped", static_cast<double>(r.cyclesSkipped))
        .num("compiled_commands", static_cast<double>(r.compiledCommands))
        .str("digest", digest)
        .str("reference", expected)
        .boolean("ok", failure.empty())
        .str("failure", failure)
        .print();
}

struct Args
{
    std::string command;
    std::map<std::string, std::string> opts;
    bool smoke = false;       ///< short experiments
    bool wrongMirror = false; ///< self-test: mirror a different seed

    const std::string &get(const std::string &k) const
    {
        auto it = opts.find(k);
        fatal_if(it == opts.end(), "missing --{}", k);
        return it->second;
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    fatal_if(argc < 2, "usage: perfbench provenance|reference|measure ...");
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        fatal_if(arg.rfind("--", 0) != 0, "unexpected argument '{}'", arg);
        if (arg == "--smoke" || arg == "--wrong-mirror") {
            (arg == "--smoke" ? a.smoke : a.wrongMirror) = true;
            continue;
        }
        fatal_if(i + 1 >= argc, "{} needs a value", arg);
        a.opts[arg.substr(2)] = argv[++i];
    }
    return a;
}

std::vector<uint64_t>
parseSeeds(const Args &a)
{
    std::vector<uint64_t> seeds;
    for (const std::string &s : splitList(a.get("seeds")))
        seeds.push_back(std::stoull(s));
    fatal_if(seeds.empty(), "--seeds is empty");
    return seeds;
}

void
provenance()
{
    JsonLine("PROV")
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("sanitize", PERFBENCH_SANITIZE)
        .str("compiler", PERFBENCH_COMPILER)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .print();
}

void
reference(const Args &a)
{
    const Workload &w = findWorkload(a.get("workload"));
    for (uint64_t seed : parseSeeds(a)) {
        const auto r = harness::runExperiment(referenceConfig(w, seed,
                                                              a.smoke));
        JsonLine("REF")
            .num("seed", static_cast<double>(seed))
            .str("digest", digestOf(r))
            .print();
    }
}

/** Stats dump of a harness run, captured from stats.dump="-". */
Measured
runHarnessCapturingDump(Config cfg, std::string &dump)
{
    cfg.set("stats.dump", "-");
    std::ostringstream captured;
    std::streambuf *saved = std::cout.rdbuf(captured.rdbuf());
    Measured t;
    try {
        t = runHarness(cfg);
    } catch (...) {
        std::cout.rdbuf(saved);
        throw;
    }
    std::cout.rdbuf(saved);
    dump = captured.str();
    return t;
}

/** First differing line of two dumps, for the refusal message. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (unsigned n = 1;; ++n) {
        const bool ea = !std::getline(sa, la);
        const bool eb = !std::getline(sb, lb);
        if (ea && eb)
            return "";
        if (ea != eb || la != lb)
            return "line " + std::to_string(n) + ": harness '" + la +
                   "' mirror '" + lb + "'";
    }
}

/**
 * Run the traced mirror of `cfg` and print its layer numbers, refused
 * (dump_match false) unless its stats dump and kernel cycle counts
 * equal those of the untraced harness run.
 */
void
traceMirror(const Config &cfg, uint64_t seed, const Measured &untraced,
            const std::string &harnessDump)
{
    perfbench::MirrorSystem mirror(cfg);
    mirror.run();
    std::string why = firstDifference(harnessDump, mirror.finish());
    const auto counts = mirror.counts();
    auto count = [&](const std::string &name) {
        for (const auto &[n, v] : counts) {
            if (n == name)
                return v;
        }
        panic("no mirror count {}", name);
    };
    const harness::ExperimentResult &r = untraced.result;
    if (why.empty() &&
        (count("sim.cycles_executed") != static_cast<double>(r.cyclesExecuted) ||
         count("sim.cycles_skipped") != static_cast<double>(r.cyclesSkipped)))
        why = "kernel cycle counts differ from the harness run";

    const perfbench::LayerTimes &lt = mirror.times();
    JsonLine seconds(""), calls(""), countsJson("");
    seconds.num("sim.self", lt.simSelf());
    for (const auto &[name, span] : lt.spans()) {
        seconds.num(name, span->seconds);
        calls.num(name, static_cast<double>(span->calls));
    }
    for (const auto &[name, value] : counts)
        countsJson.num(name, value);
    JsonLine("TRACE")
        .num("seed", static_cast<double>(seed))
        .boolean("dump_match", why.empty())
        .str("mismatch", why)
        .num("traced_step_s", lt.stepSeconds)
        .num("warmup_s", lt.warmupSeconds)
        .num("untraced_step_s", untraced.step)
        .num("cycles", static_cast<double>(r.cyclesRun))
        .raw("seconds", seconds.object())
        .raw("calls", calls.object())
        .raw("counts", countsJson.object())
        .print();
}

int
measure(const Args &a)
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType == "Debug" || std::string(PERFBENCH_SANITIZE) != "") {
        std::cerr << "perfbench: refusing to measure a " << buildType
                  << " build with sanitizers '" << PERFBENCH_SANITIZE
                  << "'\n";
        return 3;
    }
    const Workload &w = findWorkload(a.get("workload"));
    const std::vector<uint64_t> seeds = parseSeeds(a);
    const std::vector<std::string> refs = splitList(a.get("refs"));
    fatal_if(refs.size() != seeds.size(), "--refs and --seeds differ");
    const double seconds = std::stod(a.get("seconds"));
    const bool trace = a.get("trace") == "1";

    const auto start = Clock::now();
    for (size_t j = 0; j < seeds.size() || since(start) < seconds; ++j) {
        const size_t k = j % seeds.size();
        const Config cfg = experimentConfig(w, seeds[k], a.smoke);
        std::string harnessDump;
        const Measured t = trace ? runHarnessCapturingDump(cfg, harnessDump)
                                 : runHarness(cfg);
        const std::string dg = digestOf(t.result);
        printExperiment(seeds[k], t, dg, refs[k],
                        failureOf(w, t.result, dg, refs[k]));
        if (trace)
            traceMirror(a.wrongMirror
                            ? experimentConfig(w, seeds[k] + 1, a.smoke)
                            : cfg,
                        seeds[k], t, harnessDump);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonLine("END")
        .num("peak_rss_kb", static_cast<double>(ru.ru_maxrss))
        .num("elapsed_s", since(start))
        .print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const Args a = parseArgs(argc, argv);
    if (a.command == "provenance") {
        provenance();
        return 0;
    }
    if (a.command == "reference") {
        reference(a);
        return 0;
    }
    if (a.command == "measure")
        return measure(a);
    fatal("unknown command '{}'", a.command);
}
