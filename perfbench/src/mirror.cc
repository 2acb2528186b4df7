#include "mirror.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <sstream>

#include "cpu/core_model.hh"
#include "cpu/workload.hh"
#include "energy/power_model.hh"
#include "fault/fault_injector.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"
#include "sched/fs.hh"
#include "sim/compiled_schedule.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace memsec;
using Clock = std::chrono::steady_clock;

std::vector<std::pair<std::string, const Span *>>
LayerTimes::spans() const
{
    return {{"cpu.tick", &cpuTick},     {"cpu.wake", &cpuWake},
            {"cpu.ff", &cpuFf},         {"mem.tick", &memTick},
            {"mem.wake", &memWake},     {"mem.ff", &memFf},
            {"sched.tick", &schedTick}, {"sched.wake", &schedWake}};
}

double
LayerTimes::simSelf() const
{
    double proxied = 0.0;
    for (const auto &[name, span] : spans())
        proxied += span->seconds;
    return stepSeconds - proxied;
}

namespace {

/**
 * Self-time bookkeeping shared by all proxies of one mirror. `closed`
 * is the inclusive time of every span closed so far; a span subtracts
 * what its children added to it while it was open.
 */
struct SpanClock
{
    double closed = 0.0;
};

/** RAII span: charges self time and one call to `span`. */
class Timed
{
  public:
    Timed(SpanClock &clock, Span &span)
        : clock_(clock), span_(span), before_(clock.closed),
          start_(Clock::now())
    {
    }
    ~Timed()
    {
        const double incl =
            std::chrono::duration<double>(Clock::now() - start_).count();
        span_.seconds += incl - (clock_.closed - before_);
        ++span_.calls;
        clock_.closed = before_ + incl;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    SpanClock &clock_;
    Span &span_;
    double before_;
    Clock::time_point start_;
};

/** Forwarding proxy in front of one Component. */
class TimedComponent final : public Component
{
  public:
    TimedComponent(Component &inner, SpanClock &clock, Span &tick,
                   Span &wake, Span &ff)
        : Component(inner.name()), inner_(inner), clock_(clock),
          tick_(tick), wake_(wake), ff_(ff)
    {
    }

    void
    tick(Cycle now) override
    {
        Timed t(clock_, tick_);
        inner_.tick(now);
    }

    Cycle
    nextWakeCycle(Cycle now) const override
    {
        Timed t(clock_, wake_);
        return inner_.nextWakeCycle(now);
    }

    void
    fastForward(Cycle from, Cycle to) override
    {
        Timed t(clock_, ff_);
        inner_.fastForward(from, to);
    }

    void saveState(Serializer &s) const override { inner_.saveState(s); }
    void restoreState(Deserializer &d) override { inner_.restoreState(d); }

  private:
    Component &inner_;
    SpanClock &clock_;
    Span &tick_;
    Span &wake_;
    Span &ff_;
};

/**
 * Forwarding proxy in front of one Scheduler. Only tick and wake are
 * timed; applyUpTo() is forwarded untimed, so compiled command
 * application stays in the controller's spans that call it.
 */
class TimedScheduler final : public sched::Scheduler
{
  public:
    TimedScheduler(mem::MemoryController &mc,
                   std::unique_ptr<sched::Scheduler> inner,
                   SpanClock &clock, Span &tick, Span &wake)
        : Scheduler(mc), inner_(std::move(inner)), clock_(clock),
          tick_(tick), wake_(wake)
    {
    }

    void
    tick(Cycle now) override
    {
        Timed t(clock_, tick_);
        inner_->tick(now);
    }

    Cycle
    nextWakeCycle(Cycle now) const override
    {
        Timed t(clock_, wake_);
        return inner_->nextWakeCycle(now);
    }

    std::string name() const override { return inner_->name(); }
    bool
    enableCompiledReplay(const sched::CompiledReplayOptions &o) override
    {
        return inner_->enableCompiledReplay(o);
    }
    bool compiledActive() const override
    {
        return inner_->compiledActive();
    }
    void applyUpTo(Cycle now) override { inner_->applyUpTo(now); }
    uint64_t compiledCommands() const override
    {
        return inner_->compiledCommands();
    }
    uint64_t compiledFallbacks() const override
    {
        return inner_->compiledFallbacks();
    }
    void finalize(Cycle now) override { inner_->finalize(now); }
    void registerStats(StatGroup &g) const override
    {
        inner_->registerStats(g);
    }
    void attachFaultInjector(fault::FaultInjector *inj) override
    {
        inner_->attachFaultInjector(inj);
    }
    void saveState(Serializer &s) const override { inner_->saveState(s); }
    void restoreState(Deserializer &d) override
    {
        inner_->restoreState(d);
    }

    const sched::Scheduler &inner() const { return *inner_; }

  private:
    std::unique_ptr<sched::Scheduler> inner_;
    SpanClock &clock_;
    Span &tick_;
    Span &wake_;
};

mem::Interleave
parseInterleave(const std::string &s)
{
    if (s == "open")
        return mem::Interleave::OpenPage;
    if (s == "close")
        return mem::Interleave::ClosePage;
    fatal("mirror: unknown interleave '{}'", s);
}

mem::Partition
parsePartition(const std::string &s)
{
    if (s == "none")
        return mem::Partition::None;
    if (s == "rank")
        return mem::Partition::Rank;
    fatal("mirror: unsupported partition '{}'", s);
}

/** Same per-core trace seed the harness derives. */
uint64_t
traceSeed(const std::string &profileName, unsigned coreIdx,
          uint64_t baseSeed)
{
    uint64_t h = baseSeed * 0x100000001B3ull;
    for (char ch : profileName)
        h = (h ^ static_cast<uint64_t>(ch)) * 0x100000001B3ull;
    return h ^ (0x9E3779B97F4A7C15ull * (coreIdx + 1));
}

sched::FsScheduler::Params
fsParams(const Config &cfg, bool refresh)
{
    fatal_if(cfg.getString("fs.mode", "rank") != "rank",
             "mirror: only rank-partitioned FS is mirrored");
    sched::FsScheduler::Params p;
    p.mode = sched::FsMode::RankPart;
    p.prefetchInDummies = cfg.getBool("fs.prefetch", false);
    p.suppressDummies = cfg.getBool("fs.suppress", false);
    p.rowBufferBoost = cfg.getBool("fs.boost", false);
    p.powerDown = cfg.getBool("fs.powerdown", false);
    p.refresh = refresh;
    p.rngSeed = cfg.getUint("seed", 1);
    fatal_if(!cfg.getString("fs.ref", "").empty() ||
                 !cfg.getString("fs.slot_weights", "").empty(),
             "mirror: fs.ref and fs.slot_weights are not mirrored");
    return p;
}

/** Apply traffic.* overrides exactly as the harness does. */
void
applyTraffic(const Config &cfg, std::vector<cpu::WorkloadProfile> &profiles)
{
    const std::string globalProc = cfg.getString("traffic.process", "none");
    for (unsigned i = 0; i < profiles.size(); ++i) {
        cpu::WorkloadProfile &p = profiles[i];
        const std::string pre = "traffic.d" + std::to_string(i) + ".";
        const std::string proc = cfg.getString(pre + "process", globalProc);
        if (proc.empty() || proc == "none")
            continue;
        auto dbl = [&](const char *key, double dflt) {
            return cfg.getDouble(
                pre + key,
                cfg.getDouble(std::string("traffic.") + key, dflt));
        };
        auto uns = [&](const char *key, unsigned dflt) {
            return static_cast<unsigned>(cfg.getUint(
                pre + key,
                cfg.getUint(std::string("traffic.") + key, dflt)));
        };
        p.trafficProcess = proc;
        p.trafficRate = dbl("rate", p.trafficRate);
        p.trafficClients = uns("clients", p.trafficClients);
        p.trafficBurstFactor = dbl("burst_factor", p.trafficBurstFactor);
        p.trafficIdleFactor = dbl("idle_factor", p.trafficIdleFactor);
        p.trafficBurstLen = dbl("burst_len", p.trafficBurstLen);
        p.trafficIdleLen = dbl("idle_len", p.trafficIdleLen);
        p.trafficDiurnalPeriod =
            dbl("diurnal_period", p.trafficDiurnalPeriod);
        p.trafficDiurnalAmp = dbl("diurnal_amp", p.trafficDiurnalAmp);
        p.storeFraction = dbl("store_fraction", p.storeFraction);
        p.mshrs = uns("mshrs", p.mshrs);
    }
}

bool
isOpenLoop(const cpu::WorkloadProfile &p)
{
    return !p.trafficProcess.empty() && p.trafficProcess != "none";
}

} // namespace

/** Members in dependency order: destroyed leaves first. */
struct MirrorSystem::Impl
{
    dram::TimingParams tp;
    LayerTimes times;
    SpanClock clock;
    std::unique_ptr<mem::AddressMap> map;
    std::unique_ptr<mem::MemoryController> mc;
    TimedScheduler *sched = nullptr; ///< owned by mc
    std::vector<cpu::WorkloadProfile> profiles;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores;
    std::vector<std::unique_ptr<TimedComponent>> proxies;
    Simulator sim;
    Cycle warmup = 0;
    Cycle measure = 0;
    bool finished = false;
    StatGroup all{"experiment"};
    std::deque<StatGroup> groups;
};

MirrorSystem::MirrorSystem(const Config &cfg)
    : impl_(std::make_unique<Impl>())
{
    Impl &im = *impl_;
    const unsigned cores = static_cast<unsigned>(cfg.getUint("cores", 8));
    const std::string schedName = cfg.getString("sched", "baseline");
    const std::string workload = cfg.getString("workload", "mcf");

    fatal_if(cfg.getUint("dram.channels", 1) != 1 ||
                 cfg.getUint("sim.shards", 1) != 1,
             "mirror: only one channel and one shard are mirrored");
    fatal_if(cfg.getInt("audit.core", -1) >= 0 ||
                 !cfg.getString("crash.dir", "").empty(),
             "mirror: audit cores and crash dumps are not mirrored");
    fatal_if(fault::FaultSpec::fromConfig(cfg).kind != fault::FaultKind::None,
             "mirror: fault injection is not mirrored");

    im.tp = dram::TimingParams::ddr3_1600_4gb();
    dram::Geometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = static_cast<unsigned>(cfg.getUint("dram.ranks", 8));
    geo.banksPerRank = static_cast<unsigned>(cfg.getUint("dram.banks", 8));
    geo.rowsPerBank = static_cast<unsigned>(cfg.getUint("dram.rows", 32768));
    geo.colsPerRow = static_cast<unsigned>(cfg.getUint("dram.cols", 128));
    im.map = std::make_unique<mem::AddressMap>(
        geo, parsePartition(cfg.getString("map.partition", "none")),
        parseInterleave(cfg.getString("map.interleave", "close")), cores);

    mem::MemoryController::Params mcp;
    mcp.timing = im.tp;
    mcp.geo = geo;
    mcp.numDomains = cores;
    mcp.queueCapacity = cfg.getUint("mc.queue_capacity", 16);
    mcp.requestPoolCapacity = cfg.getUint("mc.request_pool", 64);
    im.mc = std::make_unique<mem::MemoryController>("mc0", mcp, *im.map);
    mem::MemoryController &mc = *im.mc;

    const bool refresh = cfg.getBool("dram.refresh", false);
    std::unique_ptr<sched::Scheduler> policy;
    if (schedName == "baseline") {
        policy = std::make_unique<sched::FrFcfsScheduler>(
            mc, cfg.getBool("core.prefetch", false), refresh);
    } else if (schedName == "fs") {
        policy =
            std::make_unique<sched::FsScheduler>(mc, fsParams(cfg, refresh));
    } else {
        fatal("mirror: scheduler '{}' is not mirrored", schedName);
    }
    auto proxy = std::make_unique<TimedScheduler>(
        mc, std::move(policy), im.clock, im.times.schedTick,
        im.times.schedWake);
    im.sched = proxy.get();
    mc.setScheduler(std::move(proxy));

    const CompiledMode compiledMode =
        parseCompiledMode(cfg.getString("sim.compiled", "off"));
    if (compiledMode != CompiledMode::Off) {
        sched::CompiledReplayOptions copts;
        copts.mode = compiledMode;
        copts.ringCapacity = cfg.getUint("sim.compiled_ring", 64);
        if (mc.scheduler().enableCompiledReplay(copts))
            mc.dram().setCompiledMode(
                compiledMode, cfg.getUint("sim.compiled_intervals", 4096));
    }

    im.profiles = cpu::workloadMix(workload, cores);
    for (const auto &p : im.profiles)
        fatal_if(p.name == "modsender",
                 "mirror: covert-channel senders are not mirrored");
    applyTraffic(cfg, im.profiles);

    for (unsigned i = 0; i < cores; ++i) {
        const cpu::WorkloadProfile &prof = im.profiles[i];
        cpu::CoreModel::Params cp;
        cp.robSize = static_cast<unsigned>(cfg.getUint("core.rob", 64));
        cp.retireWidth =
            static_cast<unsigned>(cfg.getUint("core.retire_width", 4));
        cp.cpuMult = static_cast<unsigned>(cfg.getUint("core.cpu_mult", 4));
        cp.llcHitLatency = static_cast<unsigned>(
            cfg.getUint("core.llc_hit_latency", 10));
        cp.llcBytes = cfg.getUint("core.llc_kb", 512) * 1024;
        cp.llcWays = static_cast<unsigned>(cfg.getUint("core.llc_ways", 8));
        cp.prefetchEnabled = cfg.getBool("core.prefetch", false);
        const double freshFrac = std::max(0.05, 1.0 - prof.reuseFraction);
        const auto warmDefault =
            isOpenLoop(prof)
                ? uint64_t{0}
                : static_cast<uint64_t>(std::min(
                      400000.0,
                      6.0 * static_cast<double>(prof.footprintLines) /
                          freshFrac));
        cp.functionalWarmupRecords =
            cfg.getUint("core.functional_warmup", warmDefault);
        im.times.warmupRecords += cp.functionalWarmupRecords;
        const auto t0 = Clock::now();
        im.cores.push_back(std::make_unique<cpu::CoreModel>(
            "core" + std::to_string(i), i, cp, prof,
            traceSeed(prof.name, i, cfg.getUint("seed", 1)), mc));
        im.times.warmupSeconds +=
            std::chrono::duration<double>(Clock::now() - t0).count();
    }

    LayerTimes &lt = im.times;
    im.sim.setFastForward(cfg.getBool("sim.fastforward", true));
    for (auto &c : im.cores) {
        im.proxies.push_back(std::make_unique<TimedComponent>(
            *c, im.clock, lt.cpuTick, lt.cpuWake, lt.cpuFf));
    }
    im.proxies.push_back(std::make_unique<TimedComponent>(
        mc, im.clock, lt.memTick, lt.memWake, lt.memFf));
    for (auto &p : im.proxies)
        im.sim.add(p.get());

    const Cycle watchdog = cfg.getUint("sim.watchdog", 100000);
    if (watchdog > 0) {
        im.sim.setWatchdog(watchdog, [&im] {
            uint64_t v = 0;
            for (const auto &c : im.cores)
                v += c->retired();
            return v + im.mc->dram().commandsIssued();
        });
    }
    im.warmup = cfg.getUint("sim.warmup", 20000);
    im.measure = cfg.getUint("sim.measure", 200000);
}

MirrorSystem::~MirrorSystem() = default;

void
MirrorSystem::run()
{
    Impl &im = *impl_;
    const auto t0 = Clock::now();
    im.sim.run(im.warmup);
    for (auto &c : im.cores)
        c->beginMeasurement();
    im.mc->beginMeasurement();
    im.sim.run(im.measure);
    im.times.stepSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
MirrorSystem::finish()
{
    Impl &im = *impl_;
    panic_if(im.finished, "MirrorSystem::finish() called twice");
    im.finished = true;
    im.mc->scheduler().finalize(im.sim.now());

    im.groups.emplace_back("mc");
    im.mc->registerStats(im.groups.back());
    im.all.adopt("mc0", im.groups.back());
    im.groups.emplace_back("sched");
    im.mc->scheduler().registerStats(im.groups.back());
    im.all.adopt("mc0.sched", im.groups.back());
    for (size_t i = 0; i < im.cores.size(); ++i) {
        im.groups.emplace_back("core");
        im.cores[i]->registerStats(im.groups.back());
        im.all.adopt("core" + std::to_string(i), im.groups.back());
    }
    std::ostringstream os;
    im.all.dump(os);
    return os.str();
}

const LayerTimes &
MirrorSystem::times() const
{
    return impl_->times;
}

std::vector<std::pair<std::string, double>>
MirrorSystem::counts() const
{
    const Impl &im = *impl_;
    panic_if(!im.finished, "MirrorSystem::counts() before finish()");
    auto stat = [&](const std::string &name) { return im.all.lookup(name); };
    auto d = [](uint64_t v) { return static_cast<double>(v); };

    double instructions = 0, robStalls = 0, arrivalReads = 0;
    double llcHits = 0, llcMisses = 0;
    for (size_t i = 0; i < im.cores.size(); ++i) {
        const std::string pre = "core" + std::to_string(i) + ".";
        instructions += d(im.cores[i]->retired());
        robStalls += stat(pre + "rob_stall_cycles");
        // Open-loop filler records are stores to one hot line, so an
        // open-loop domain's loads are exactly its read arrivals.
        if (isOpenLoop(im.profiles[i]))
            arrivalReads += stat(pre + "loads");
        llcHits += d(im.cores[i]->llc().hits().value());
        llcMisses += d(im.cores[i]->llc().misses().value());
    }

    const dram::DramSystem &dram = im.mc->dram();
    double act = 0, rd = 0, wr = 0, ref = 0, suppressed = 0, pdCycles = 0;
    double energyNj = 0;
    energy::PowerModel pm(energy::DeviceParams::ddr3_1600_4gb(), im.tp);
    for (unsigned r = 0; r < dram.numRanks(); ++r) {
        const dram::RankEnergyCounters &e = dram.rank(r).energy();
        act += d(e.activates);
        rd += d(e.reads);
        wr += d(e.writes);
        ref += d(e.refreshes);
        suppressed += d(e.suppressedActs + e.suppressedCas);
        pdCycles += d(e.cyclesPowerDown);
        energyNj += pm.rankEnergy(e).totalNj();
    }
    const double commands = d(dram.commandsIssued());

    const sched::Scheduler &policy = im.sched->inner();
    double rowHits = 0;
    if (const auto *fr =
            dynamic_cast<const sched::FrFcfsScheduler *>(&policy))
        rowHits = d(fr->engine().rowHits());
    const double compiled = d(policy.compiledCommands());

    const double executed = d(im.sim.cyclesExecuted());
    const double skipped = d(im.sim.cyclesSkipped());
    return {
        {"sim.cycles_executed", executed},
        {"sim.cycles_skipped", skipped},
        {"sim.jumps", d(im.sim.fastForwardJumps())},
        {"sim.skip_ratio",
         executed + skipped > 0 ? skipped / (executed + skipped) : 0.0},

        {"cpu.instructions", instructions},
        {"cpu.rob_stall_cycles", robStalls},
        {"cpu.arrival_reads", arrivalReads},
        {"cpu.warmup_records", d(im.times.warmupRecords)},
        {"cache.llc_hits", llcHits},
        {"cache.llc_misses", llcMisses},
        {"mem.demand_reads", stat("mc0.demand_reads")},
        {"mem.writes", stat("mc0.writes")},
        {"mem.overflow_drops", stat("mc0.overflow_drops")},
        {"mem.real_bursts", stat("mc0.real_bursts")},
        {"mem.dummy_bursts", stat("mc0.dummy_bursts")},
        {"sched.compiled_commands", compiled},
        {"sched.compiled_fallbacks", d(policy.compiledFallbacks())},
        {"sched.compiled_ratio", commands > 0 ? compiled / commands : 0.0},
        {"sched.row_hits", rowHits},
        {"dram.act", act},
        {"dram.rd", rd},
        {"dram.wr", wr},
        {"dram.ref", ref},
        // Neither ACT, CAS nor REF: explicit precharges plus power-down
        // entry and exit (the device keeps no per-type totals).
        {"dram.pre_pd", commands - act - rd - wr - ref - suppressed},
        {"dram.commands", commands},
        {"dram.timing_violations", d(dram.checker().violationCount())},
        {"energy.total_nj", energyNj},
        {"energy.powerdown_cycles", pdCycles},
    };
}

} // namespace perfbench
