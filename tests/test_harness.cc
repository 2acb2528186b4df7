#include <gtest/gtest.h>

#include <fstream>

#include "harness/experiment.hh"
#include "util/logging.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

Config
tinyConfig(const std::string &scheme, const std::string &workload)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 4);
    c.set("sim.warmup", 2000);
    c.set("sim.measure", 20000);
    return c;
}

} // namespace

TEST(Harness, DefaultConfigMatchesTable1)
{
    const Config c = defaultConfig();
    EXPECT_EQ(c.getUint("cores"), 8u);
    EXPECT_EQ(c.getUint("dram.ranks"), 8u);
    EXPECT_EQ(c.getUint("dram.banks"), 8u);
    EXPECT_EQ(c.getUint("core.rob"), 64u);
    EXPECT_EQ(c.getUint("core.retire_width"), 4u);
    EXPECT_EQ(c.getUint("core.cpu_mult"), 4u);
    EXPECT_EQ(c.getUint("core.llc_kb"), 512u); // 4 MB / 8 cores
}

TEST(Harness, AllSchemesHaveConfigs)
{
    for (const auto &s : allSchemes())
        EXPECT_NO_FATAL_FAILURE(schemeConfig(s)) << s;
    EXPECT_EXIT(schemeConfig("bogus"), ::testing::ExitedWithCode(1),
                "unknown scheme");
}

TEST(Harness, BaselineRunProducesSaneResults)
{
    const auto r = runExperiment(tinyConfig("baseline", "mcf"));
    EXPECT_EQ(r.cores, 4u);
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double v : r.ipc) {
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 4.0);
    }
    EXPECT_GT(r.meanReadLatency, 20.0);
    EXPECT_GT(r.effectiveBandwidth, 0.0);
    EXPECT_LE(r.effectiveBandwidth, 1.0);
    EXPECT_GT(r.energy.totalNj(), 0.0);
    EXPECT_GT(r.rowHitRate, 0.0);
}

TEST(Harness, FsRunRespectsTheoreticalPeak)
{
    const auto r = runExperiment(tinyConfig("fs_rp", "libquantum"));
    // 4 threads, l=7: peak = 4/(7*...)*... data bursts occupy at most
    // tBURST/l of the bus.
    EXPECT_LE(r.effectiveBandwidth, 4.0 / 7.0 + 0.01);
    EXPECT_EQ(r.scheme, "fs_rp");
}

TEST(Harness, WeightedIpcAgainstSelfIsCoreCount)
{
    const auto r = runExperiment(tinyConfig("baseline", "astar"));
    EXPECT_NEAR(r.weightedIpc(r.ipc), 4.0, 1e-9);
}

TEST(Harness, WeightedIpcSizeMismatchPanics)
{
    const auto r = runExperiment(tinyConfig("baseline", "astar"));
    EXPECT_THROW(r.weightedIpc({1.0}), std::logic_error);
}

TEST(Harness, BaselineIpcHelper)
{
    Config base = defaultConfig();
    base.set("cores", 2);
    base.set("sim.warmup", 1000);
    base.set("sim.measure", 10000);
    const auto ipc = baselineIpc("xalancbmk", base);
    ASSERT_EQ(ipc.size(), 2u);
    EXPECT_GT(ipc[0], 0.0);
}

TEST(Harness, DeterministicAcrossRuns)
{
    const auto a = runExperiment(tinyConfig("fs_rp", "milc"));
    const auto b = runExperiment(tinyConfig("fs_rp", "milc"));
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.demandReads, b.demandReads);
}

TEST(Harness, DummyFractionOnlyForFs)
{
    const auto base = runExperiment(tinyConfig("baseline", "mcf"));
    EXPECT_DOUBLE_EQ(base.dummyFraction, 0.0);
    const auto fs = runExperiment(tinyConfig("fs_rp", "xalancbmk"));
    EXPECT_GT(fs.dummyFraction, 0.0);
}

TEST(Harness, AuditCoreCapturesTimeline)
{
    Config c = tinyConfig("fs_rp", "mcf");
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    const auto r = runExperiment(c);
    ASSERT_FALSE(r.timelines.empty());
    EXPECT_FALSE(r.timelines[0].service.empty());
    EXPECT_FALSE(r.timelines[0].progress.empty());
}

TEST(Harness, SchemeConfigsPairSchedulerAndPartition)
{
    EXPECT_EQ(schemeConfig("fs_rp").getString("map.partition"), "rank");
    EXPECT_EQ(schemeConfig("fs_bp").getString("map.partition"), "bank");
    EXPECT_EQ(schemeConfig("tp_np").getString("map.partition"), "none");
    EXPECT_EQ(schemeConfig("fs_np_triple").getString("fs.mode"),
              "triple");
    EXPECT_TRUE(schemeConfig("fs_rp_powerdown").getBool("fs.suppress"));
}

TEST(Harness, StatsDumpWritesFile)
{
    Config c = tinyConfig("fs_rp", "milc");
    const std::string path = ::testing::TempDir() + "memsec_stats.txt";
    c.set("stats.dump", path);
    runExperiment(c);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("mc0.demand_reads"), std::string::npos);
    EXPECT_NE(text.find("mc0.sched.dummy_ops"), std::string::npos);
    EXPECT_NE(text.find("core0.ipc"), std::string::npos);
}

TEST(Harness, MalformedSlotWeightsAreFatal)
{
    // Each must end in a fatal naming the key, never an uncaught
    // std::invalid_argument or a 4294967295-slot allocation.
    for (const char *bad :
         {"1,x,1,1", "1,-1,1,1", "1,,1,1", "1,1,1,", ",1,1,1",
          "1, 1,1,1", "1,+1,1,1", "1,4294967296,1,1", "0,0,0,0",
          "1,4294967295,1,1", "4093,1,1,2"}) {
        Config c = tinyConfig("fs_rp", "mcf");
        c.set("fs.slot_weights", bad);
        EXPECT_EXIT(runExperiment(c), ::testing::ExitedWithCode(1),
                    "fs.slot_weights")
            << bad;
    }
    // A valid but huge weight: the fatal names the frame it would
    // build (the sum, past 32 bits) before anything is allocated.
    Config c = tinyConfig("fs_rp", "mcf");
    c.set("fs.slot_weights", "1,4294967295,1,4294967295");
    EXPECT_EXIT(runExperiment(c), ::testing::ExitedWithCode(1),
                "fs.slot_weights .* sums to a 8589934592-slot frame; the "
                "limit is 4096 slots");
}

TEST(Harness, ZeroQueueCapacityIsFatal)
{
    // User input, not a simulator bug: a fatal naming the key, not
    // TransactionQueue's internal panic.
    Config c = tinyConfig("fs_rp", "mcf");
    c.set("mc.queue_capacity", 0);
    EXPECT_EXIT(runExperiment(c), ::testing::ExitedWithCode(1),
                "mc.queue_capacity 0");
}

TEST(Harness, ZeroCpuMultIsFatal)
{
    // 0 ticks no CPU cycle: every core would report IPC 0 and read
    // latency 0 instead of failing. 2^32 truncates to the same 0.
    for (const char *bad : {"0", "4294967296"}) {
        Config c = tinyConfig("fs_rp", "mcf");
        c.set("core.cpu_mult", bad);
        EXPECT_EXIT(runExperiment(c), ::testing::ExitedWithCode(1),
                    std::string("core.cpu_mult ") + bad)
            << bad;
    }
}
