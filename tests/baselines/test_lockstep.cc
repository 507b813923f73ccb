/**
 * @file
 * Lockstep (Derecho-like) baseline: total order, lock-step round
 * stability, batching cap, and the serialization behaviour Figure 8
 * contrasts with Hermes (§6.5).
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "support/cluster_fixture.hh"
#include "app/driver.hh"
#include "support/str_cat.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;

using test::lockstepConfig;

TEST(Lockstep, SequencerIsLowestId)
{
    SimCluster cluster(lockstepConfig(3));
    cluster.start();
    EXPECT_TRUE(cluster.replica(0).lockstep()->isSequencer());
    EXPECT_EQ(cluster.replica(2).lockstep()->sequencer(), 0u);
}

TEST(Lockstep, WriteDeliversEverywhere)
{
    SimCluster cluster(lockstepConfig(5));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(3, 1, "v"));
    cluster.runFor(5_ms);
    for (NodeId n = 0; n < 5; ++n)
        EXPECT_EQ(cluster.readSync(n, 1).value_or("?"), "v") << "node " << n;
}

TEST(Lockstep, TotalOrderAcrossSubmitters)
{
    SimCluster cluster(lockstepConfig(3));
    cluster.start();
    int committed = 0;
    for (int i = 0; i < 10; ++i)
        for (NodeId n = 0; n < 3; ++n)
            cluster.write(n, 5, test::strCat("n", n, "i", i),
                          [&committed] { ++committed; });
    cluster.runFor(50_ms);
    EXPECT_EQ(committed, 30);
    // All replicas converge on the same final value (total order).
    Value v0 = cluster.readSync(0, 5).value_or("?");
    EXPECT_EQ(cluster.readSync(1, 5).value_or("!"), v0);
    EXPECT_EQ(cluster.readSync(2, 5).value_or("!"), v0);
    EXPECT_EQ(cluster.replica(0).lockstep()->stats().entriesDelivered, 30u);
}

TEST(Lockstep, RoundsRespectBatchCap)
{
    SimCluster cluster(lockstepConfig(3, /*batch_cap=*/4));
    cluster.start();
    int committed = 0;
    for (int i = 0; i < 16; ++i)
        cluster.write(0, 100 + i, "v", [&committed] { ++committed; });
    cluster.runFor(50_ms);
    EXPECT_EQ(committed, 16);
    // 16 entries at cap 4 -> at least 4 rounds.
    EXPECT_GE(cluster.replica(0).lockstep()->stats().roundsDelivered, 4u);
}

TEST(Lockstep, LockstepSerializesRounds)
{
    // One round in flight at a time: delivery count grows stepwise, and
    // total wall-time scales with the round count, not the entry count.
    ClusterConfig config = lockstepConfig(3, 1);
    config.cost.netJitterNs = 0;
    SimCluster cluster(config);
    cluster.start();
    int committed = 0;
    TimeNs start = cluster.now();
    for (int i = 0; i < 8; ++i)
        cluster.write(0, 200 + i, "v", [&committed] { ++committed; });
    cluster.runFor(100_ms);
    EXPECT_EQ(committed, 8);
    DurationNs elapsed = cluster.now() - start;
    // 8 rounds, each at least ~2 network hops.
    EXPECT_GE(elapsed, 8 * 2 * config.cost.netBaseNs);
}

TEST(Lockstep, ReadsLocalSc)
{
    SimCluster cluster(lockstepConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 2, "x"));
    cluster.runFor(5_ms);
    uint64_t sent_before = cluster.runtime().network().sentCount();
    EXPECT_EQ(cluster.readSync(1, 2).value_or("?"), "x");
    EXPECT_EQ(cluster.runtime().network().sentCount(), sent_before);
}

TEST(Lockstep, ThroughputUnderLoad)
{
    SimCluster cluster(lockstepConfig(5));
    cluster.start();
    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 100;
    driver_config.workload.writeRatio = 1.0; // Fig 8 is write-only
    driver_config.sessionsPerNode = 8;
    driver_config.warmup = 2_ms;
    driver_config.measure = 10_ms;
    app::LoadDriver driver(cluster, driver_config);
    app::DriverResult result = driver.run();
    EXPECT_GT(result.throughputMops, 0.01);
}

} // namespace
} // namespace hermes
