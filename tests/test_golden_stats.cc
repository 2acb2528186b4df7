/**
 * @file
 * Golden-stats regression tests: scaled-down versions of the fig03
 * and fig06 campaigns and the tab_solver analytics are digested and
 * compared byte-for-byte against committed files under
 * tests/golden/. A mismatch means a simulated observable moved —
 * deliberate changes regenerate the files with
 *
 *     MEMSEC_REGEN_GOLDEN=1 ./build/tests/test_golden_stats
 *
 * (or tools/regen_golden.sh, which wraps exactly that) and commit
 * the diff, which shows precisely which metric changed.
 *
 * Digest text is hexfloat throughout (via resultDigest), so equality
 * is bit-equality of every double; the repo's determinism guarantees
 * make that stable across runs, thread counts, and the idle-skip
 * fast path.
 *
 * snapshot.digest pins the checkpoint *bytes* rather than the
 * observables: a layout change that still round-trips (and so passes
 * test_checkpoint_diff) moves it. Regenerate it only together with a
 * kSnapshotVersion bump.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "dram/timing.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "leakage/channel.hh"
#include "util/serialize.hh"
#include "util/thread_pool.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(MEMSEC_SOURCE_DIR) + "/tests/golden/" + name;
}

bool
regenRequested()
{
    const char *env = std::getenv("MEMSEC_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

void
compareOrRegen(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing — regenerate with MEMSEC_REGEN_GOLDEN=1 "
        << "(see tools/regen_golden.sh)";
    std::string expected((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(expected, actual)
        << "golden stats drifted for " << name
        << "; if the change is intended, run tools/regen_golden.sh "
        << "and commit the diff";
}

/** Scaled-down campaign over a figure's scheme list. */
std::string
campaignDigest(const std::vector<std::string> &schemes,
               const std::vector<std::string> &workloads)
{
    Campaign campaign;
    std::vector<std::string> labels;
    for (const auto &s : schemes) {
        for (const auto &w : workloads) {
            Config c = defaultConfig();
            c.merge(schemeConfig(s));
            c.set("workload", w);
            c.set("cores", 4);
            c.set("sim.warmup", 1500);
            c.set("sim.measure", 12000);
            labels.push_back(s + "/" + w);
            campaign.add(labels.back(), c);
        }
    }
    CampaignOptions opts;
    opts.jobs = 4; // the runner guarantees serial-identical results
    campaign.run(opts);

    std::ostringstream os;
    for (size_t i = 0; i < campaign.size(); ++i) {
        os << "== " << labels[i] << " ==\n"
           << resultDigest(campaign.result(i));
    }
    return os.str();
}

/** FNV-1a, 64-bit: a stable fingerprint of a byte string. */
std::string
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The tab_solver analytics for one DRAM part, hexfloat-exact. */
void
solverDigest(std::ostream &os, const char *label,
             const dram::TimingParams &tp)
{
    using core::PartitionLevel;
    using core::PeriodicRef;
    core::PipelineSolver solver(tp);
    os << "== " << label << " (" << tp.toString() << ") ==\n";
    os << std::hexfloat;
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        for (PeriodicRef ref :
             {PeriodicRef::Data, PeriodicRef::Ras,
              PeriodicRef::Cas}) {
            const auto sol = solver.solve(ref, level);
            os << core::partitionLevelName(level) << "/"
               << core::periodicRefName(ref) << ":";
            if (!sol.feasible) {
                os << " infeasible\n";
                continue;
            }
            os << " l=" << sol.l << " Q8=" << sol.intervalQ(8)
               << " util=" << sol.peakUtilisation(tp.burst) << "\n";
        }
    }
    const auto re = solver.solveReordered(8);
    os << "reordered: spacing=" << re.spacing
       << " endGap=" << re.endGap << " Q=" << re.q
       << " util=" << re.peakUtilisation << "\n";
    os << "alternation=" << solver.alternationFactor() << "\n";
}

} // namespace

TEST(GoldenStats, Fig03DesignPointCampaign)
{
    compareOrRegen(
        "fig03.digest",
        campaignDigest({"channel_part", "fs_rp", "fs_reordered_bp",
                        "tp_bp", "fs_np", "fs_np_triple", "tp_np"},
                       {"mcf", "libquantum"}));
}

TEST(GoldenStats, Fig06PerformanceCampaign)
{
    compareOrRegen(
        "fig06.digest",
        campaignDigest({"fs_rp", "fs_reordered_bp", "tp_bp",
                        "fs_np_triple", "tp_np"},
                       {"milc", "astar"}));
}

TEST(GoldenStats, FigLeakageCampaign)
{
    // Scaled-down covert-channel sweep: one leaking and two closed
    // points. The digest pins both the run's simulated observables
    // (resultDigest, timeline included) and every metric of the
    // leakage analysis (leakageDigest, hexfloat throughout), so any
    // drift in the attack harness, the extractor, the MI estimator,
    // or the decoder shows up as a byte diff.
    Campaign campaign;
    const std::vector<std::string> schemes = {"baseline", "fs_rp",
                                              "tp_bp"};
    for (const auto &s : schemes) {
        Config c = defaultConfig();
        c.merge(schemeConfig(s));
        c.set("workload", "probe,modsender,modsender,modsender");
        c.set("cores", 4);
        c.set("sim.warmup", 0);
        c.set("sim.measure", 45000);
        c.set("audit.core", 0);
        c.set("leak.window", 1500);
        c.set("leak.secret_seed", 0xC0FFEE);
        c.set("leak.secret_bits", 16);
        c.set("leak.skip_windows", 2);
        // Pilot preamble turns on the trained attacker, so the
        // digest also pins every attacker.* metric (timing score,
        // chosen guard, pilot separation, ML BER, LLR MI, strength
        // inputs). 7 + 16 = 23 frame windows, prime as in
        // bench/fig_leakage.
        c.set("leak.code.preamble", 7);
        campaign.add(s, c);
    }
    CampaignOptions opts;
    opts.jobs = 3; // the runner guarantees serial-identical results
    campaign.run(opts);

    std::ostringstream os;
    for (size_t i = 0; i < schemes.size(); ++i) {
        const auto &res = campaign.result(i);
        const auto params = leakage::ChannelParams::fromConfig(
            campaign.outcome(i).config);
        os << "== " << schemes[i] << " ==\n"
           << leakage::leakageDigest(
                  leakage::analyzeLeakage(res.timelines.at(0), params))
           << resultDigest(res);
    }
    compareOrRegen("fig_leakage.digest", os.str());
}

TEST(GoldenStats, CompiledMatrix)
{
    // The sim.compiled differential matrix of test_fastforward_diff
    // frozen as data: the naive-loop digest of every fault-free
    // CompiledDiff arm, plus the FS energy, prefetch and refresh
    // variants. The differential tests only prove that two issue
    // paths agree with each other; this file pins what they agree on.
    struct Arm
    {
        const char *label;
        const char *scheme;
        const char *workload;
        uint64_t seed;
        const char *key;   ///< extra config key (nullptr: none)
        const char *value;
    };
    const Arm arms[] = {
        {"fs_rp/mcf/1", "fs_rp", "mcf", 1, nullptr, nullptr},
        {"fs_rp/libquantum/42", "fs_rp", "libquantum", 42, nullptr,
         nullptr},
        {"fs_bp/mcf/1", "fs_bp", "mcf", 1, nullptr, nullptr},
        {"fs_np/mcf/1", "fs_np", "mcf", 1, nullptr, nullptr},
        {"fs_np/hog/1", "fs_np", "hog", 1, nullptr, nullptr},
        {"fs_np_triple/mcf/3", "fs_np_triple", "mcf", 3, nullptr,
         nullptr},
        {"fs_rp+weights/mcf/1", "fs_rp", "mcf", 1, "fs.slot_weights",
         "2,1,1,1"},
        {"fs_reordered_bp/mcf/1", "fs_reordered_bp", "mcf", 1, nullptr,
         nullptr},
        {"fs_reordered_bp/milc/42", "fs_reordered_bp", "milc", 42,
         nullptr, nullptr},
        {"tp_bp/mcf/1", "tp_bp", "mcf", 1, nullptr, nullptr},
        {"tp_np/mcf/1", "tp_np", "mcf", 1, nullptr, nullptr},
        {"fs_rp+refresh/mcf/1", "fs_rp", "mcf", 1, "dram.refresh",
         "true"},
        {"fs_rp_powerdown+refresh/mix2/1", "fs_rp_powerdown", "mix2", 1,
         "dram.refresh", "true"},
        {"fs_rp_prefetch/libquantum/1", "fs_rp_prefetch", "libquantum",
         1, nullptr, nullptr},
        {"fs_rp_boost/mcf/1", "fs_rp_boost", "mcf", 1, nullptr,
         nullptr},
        {"fs_rp_suppress/mcf/1", "fs_rp_suppress", "mcf", 1, nullptr,
         nullptr},
    };

    Campaign campaign;
    for (const Arm &a : arms) {
        // Same design point as test_fastforward_diff's diffConfig,
        // run on the naive loop.
        Config c = defaultConfig();
        c.merge(schemeConfig(a.scheme));
        c.set("workload", a.workload);
        c.set("cores", 4);
        c.set("seed", a.seed);
        c.set("sim.warmup", 1500);
        c.set("sim.measure", 12000);
        c.set("audit.core", 0);
        c.set("audit.progress_interval", 1000);
        c.set("sim.fastforward", false);
        if (a.key)
            c.set(a.key, a.value);
        campaign.add(a.label, c);
    }
    CampaignOptions opts;
    opts.jobs = 4; // the runner guarantees serial-identical results
    campaign.run(opts);

    std::ostringstream os;
    for (size_t i = 0; i < campaign.size(); ++i)
        os << "== " << arms[i].label << " ==\n"
           << resultDigest(campaign.result(i));
    compareOrRegen("compiled_matrix.digest", os.str());
}

TEST(GoldenStats, TabSolverAnalytics)
{
    std::ostringstream os;
    solverDigest(os, "DDR3-1600 4Gb",
                 dram::TimingParams::ddr3_1600_4gb());
    solverDigest(os, "DDR3-2133", dram::TimingParams::ddr3_2133());
    solverDigest(os, "DDR4-2400", dram::TimingParams::ddr4_2400());
    compareOrRegen("tab_solver.digest", os.str());
}

TEST(GoldenStats, SnapshotBytes)
{
    // The checkpoint layouts frozen as data: for every test_checkpoint
    // _diff design point (plus FS power-down with refresh, a fault
    // kind that floods the queues, a 2-channel sharded run and
    // open-loop MMPP), the size and FNV-1a-64 of the snapshot payload
    // taken mid-run, and of the journal entry (serializeResult) of the
    // finished run. Snapshots are fingerprint-bound, so only the
    // payload is hashed here.
    struct Arm
    {
        const char *label;
        const char *scheme;
        const char *workload;
        uint64_t seed;
        std::vector<std::pair<const char *, const char *>> keys;
        Cycle chop = 5000; ///< cycle at which the snapshot is taken
    };
    const Cycle refi = dram::TimingParams::ddr3_1600_4gb().refi;
    const std::vector<Arm> arms = {
        {"fs_rp/mcf/1", "fs_rp", "mcf", 1, {}},
        {"fs_rp/libquantum/42", "fs_rp", "libquantum", 42, {}},
        {"fs_bp/milc/7", "fs_bp", "milc", 7, {}},
        {"fs_np/mcf/1", "fs_np", "mcf", 1, {}},
        {"fs_np+naive/mcf/1", "fs_np", "mcf", 1,
         {{"sim.fastforward", "false"}}},
        {"fs_rp_powerdown/mcf/1", "fs_rp_powerdown", "mcf", 1, {}},
        {"fs_rp_prefetch/libquantum/1", "fs_rp_prefetch", "libquantum",
         1, {}},
        {"fs_reordered_bp/mcf/1", "fs_reordered_bp", "mcf", 1, {}},
        {"fs_reordered+rank/milc/42", "fs_reordered_bp", "milc", 42,
         {{"map.partition", "rank"}}},
        {"tp_bp/mcf/1", "tp_bp", "mcf", 1, {}},
        {"tp_bp/astar/42", "tp_bp", "astar", 42, {}},
        {"tp_np/xalancbmk/7", "tp_np", "xalancbmk", 7, {}},
        {"baseline/mcf/1", "baseline", "mcf", 1, {}},
        {"baseline_prefetch/mcf/1", "baseline_prefetch", "mcf", 1, {}},
        {"channel_part/mcf/1", "channel_part", "mcf", 1, {}},
        {"fs_rp+slot-skew/mcf/1", "fs_rp", "mcf", 1,
         {{"fault.kind", "slot-skew"}}},
        {"fs_rp+queue-overflow/mcf/1", "fs_rp", "mcf", 1,
         {{"fault.kind", "queue-overflow"}}},
        {"fs_rp+compiled/mcf/1", "fs_rp", "mcf", 1,
         {{"sim.compiled", "on"}}},
        {"tp_bp+compiled/mcf/1", "tp_bp", "mcf", 1,
         {{"sim.compiled", "on"}}},
        {"fs_reordered_bp+compiled/mcf/1", "fs_reordered_bp", "mcf", 1,
         {{"sim.compiled", "on"}}},
        {"fs_rp_powerdown+refresh/mix2/1", "fs_rp_powerdown", "mix2", 1,
         {{"dram.refresh", "true"}},
         refi + 3},
        {"fs_rp_powerdown+refresh+compiled/mix2/1", "fs_rp_powerdown",
         "mix2", 1,
         {{"dram.refresh", "true"}, {"sim.compiled", "on"}},
         2 * refi + 100},
        {"fs_rp+2ch+shards/mcf/1", "fs_rp", "mcf", 1,
         {{"dram.channels", "2"}, {"cores", "8"}, {"sim.shards", "2"}}},
        {"fs_rp+mmpp/cloud/1", "fs_rp", "cloud", 1,
         {{"dram.channels", "2"},
          {"cores", "8"},
          {"traffic.process", "mmpp"},
          {"traffic.rate", "6.0"},
          {"traffic.clients", "16"}}},
    };

    std::vector<std::string> lines(arms.size());
    {
        ThreadPool pool(4);
        for (size_t i = 0; i < arms.size(); ++i) {
            pool.submit([&arms, &lines, i] {
                const Arm &a = arms[i];
                // Same design point as test_checkpoint_diff's
                // diffConfig.
                Config c = defaultConfig();
                c.merge(schemeConfig(a.scheme));
                c.set("workload", a.workload);
                c.set("cores", 4);
                c.set("seed", a.seed);
                c.set("sim.warmup", 1500);
                c.set("sim.measure", 12000);
                c.set("audit.core", 0);
                c.set("audit.progress_interval", 1000);
                for (const auto &[key, value] : a.keys)
                    c.set(key, value);

                ExperimentSystem sys(c);
                sys.step(a.chop);
                Serializer snap;
                sys.saveState(snap);
                while (!sys.done())
                    sys.step(kNoCycle);
                Serializer journal;
                serializeResult(journal, sys.finish());

                std::ostringstream os;
                os << a.label << " snapshot=" << snap.size() << ":"
                   << fnv1a64(snap.data())
                   << " journal=" << journal.size() << ":"
                   << fnv1a64(journal.data()) << "\n";
                lines[i] = os.str();
            });
        }
        pool.wait();
    }

    std::ostringstream os;
    os << "snapshot-version " << kSnapshotVersion << "\n";
    for (const std::string &l : lines)
        os << l;
    compareOrRegen("snapshot.digest", os.str());
}
