/**
 * @file
 * Crash-restart recovery end to end (sim): a replica is killed mid-run
 * and restarted from its write-ahead log, replays surviving records,
 * rejoins through the §3.4 shadow state transfer, and the full history
 * — including writes acknowledged before the crash — stays
 * linearizable. Plus the cold-start path: a whole group restarted from
 * logs alone heals every key through timestamp-preserving replays, and
 * the shared restart choreography's step order behind a fake host.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "app/cluster.hh"
#include "app/driver.hh"
#include "app/lin_checker.hh"
#include "app/workload.hh"
#include "store/wal.hh"
#include "support/cluster_fixture.hh"
#include "support/str_cat.hh"
#include "support/temp_dir.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::DriverConfig;
using app::DriverResult;
using app::HistOp;
using app::LoadDriver;
using app::Protocol;
using app::SimCluster;

ClusterConfig
durableConfig(const std::string &wal_dir, size_t nodes = 3)
{
    ClusterConfig config = test::hermesConfig(nodes);
    config.walDir = wal_dir;
    config.replica.hermesConfig.mlt = 200_us;
    return config;
}

/** A ReplicaHost that only records what restartFromWal asks of it. */
class FakeRestartHost : public app::ReplicaHost
{
  public:
    std::set<NodeId> down;
    std::vector<std::string> steps;

    bool alive(NodeId id) override { return down.count(id) == 0; }

    void
    crash(NodeId id) override
    {
        steps.push_back(test::strCat("crash ", id));
        down.insert(id);
    }

    void
    queueJob(NodeId id, app::ReplicaJob job) override
    {
        if (job.view)
            steps.push_back(test::strCat("job ", id, ": ", show(*job.view)));
        else if (job.syncSource != kInvalidNode)
            steps.push_back(
                test::strCat("job ", id, ": sync from ", job.syncSource));
        else
            steps.push_back(
                test::strCat("job ", id, ": map epoch ", job.mapEpoch));
    }

    Epoch
    viewEpoch(NodeId id) override
    {
        steps.push_back(test::strCat("epoch of ", id));
        return 7;
    }

    uint32_t mapEpoch() override { return 3; }

    void
    rebuild(NodeId id, const membership::MembershipView &view) override
    {
        steps.push_back(test::strCat("rebuild ", id, ": ", show(view)));
        down.erase(id);
    }

  private:
    static std::string
    show(const membership::MembershipView &view)
    {
        std::string out = test::strCat("view ", view.epoch, " {");
        for (NodeId n : view.live)
            out += test::strCat(" ", n);
        return out + " }";
    }
};

TEST(RecoveryChoreography, ShrinksRebuildsExtendsThenSyncsFromLowestSurvivor)
{
    // Group {4..7} (a shard with a non-zero id base); node 4 is down, so
    // the lowest-id live survivor other than node 5 is node 6.
    FakeRestartHost host;
    host.down = {4};
    app::restartFromWal(host, {4, 5, 6, 7}, 5);
    const std::vector<std::string> expected = {
        "crash 5",
        "epoch of 6",
        "job 6: view 8 { 6 7 }",
        "job 7: view 8 { 6 7 }",
        "rebuild 5: view 8 { 6 7 }",
        "job 5: map epoch 3",
        "job 5: view 9 { 5 6 7 }",
        "job 6: view 9 { 5 6 7 }",
        "job 7: view 9 { 5 6 7 }",
        "job 5: sync from 6",
    };
    EXPECT_EQ(host.steps, expected);
}

TEST(RecoveryChoreography, NodeAlreadyDownIsNotCrashedAgain)
{
    // The lowest id is the node itself: the source is the next one up.
    FakeRestartHost host;
    host.down = {0};
    app::restartFromWal(host, {0, 1, 2}, 0);
    const std::vector<std::string> expected = {
        "epoch of 1",
        "job 1: view 8 { 1 2 }",
        "job 2: view 8 { 1 2 }",
        "rebuild 0: view 8 { 1 2 }",
        "job 0: map epoch 3",
        "job 0: view 9 { 0 1 2 }",
        "job 1: view 9 { 0 1 2 }",
        "job 2: view 9 { 0 1 2 }",
        "job 0: sync from 1",
    };
    EXPECT_EQ(host.steps, expected);
}

TEST(WalRecovery, CrashRestartRecoversAckedWrites)
{
    test::TempDir dir("recovery-basic");
    SimCluster cluster(durableConfig(dir.path()));
    cluster.start();
    for (Key key = 0; key < 100; ++key) {
        ASSERT_TRUE(cluster.writeSync(static_cast<NodeId>(key % 3), key,
                                      "durable-" + std::to_string(key)));
    }

    cluster.crashRestartNode(2);
    cluster.runFor(50_ms);

    // Back from its log and the catch-up stream: operational again...
    EXPECT_FALSE(cluster.replica(2).hermes()->isShadow());
    ASSERT_NE(cluster.replica(2).wal(), nullptr);
    EXPECT_GT(cluster.replica(2).wal()->stats().recordsRecovered, 0u);
    // ...and serving every pre-crash acknowledged write.
    for (Key key = 0; key < 100; ++key) {
        EXPECT_EQ(cluster.readSync(2, key).value_or("?"),
                  "durable-" + std::to_string(key))
            << "key " << key;
        EXPECT_TRUE(cluster.converged(key)) << "key " << key;
    }
    // And the shrunken-view interlude didn't wedge writes: the full
    // group commits again (needs the restarted node's ACK).
    ASSERT_TRUE(cluster.writeSync(2, 1000, "post-recovery"));
    EXPECT_EQ(cluster.readSync(0, 1000).value_or("?"), "post-recovery");
}

TEST(WalRecovery, RestartedNodeKeepsLoggingForTheNextCrash)
{
    // Crash the same node twice: the second recovery must see both the
    // pre-first-crash records and everything re-logged by the state
    // transfer and post-restart writes.
    test::TempDir dir("recovery-twice");
    SimCluster cluster(durableConfig(dir.path()));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "one"));
    cluster.crashRestartNode(2);
    cluster.runFor(30_ms);
    ASSERT_TRUE(cluster.writeSync(2, 2, "two"));

    cluster.crashRestartNode(2);
    cluster.runFor(30_ms);
    EXPECT_FALSE(cluster.replica(2).hermes()->isShadow());
    EXPECT_EQ(cluster.readSync(2, 1).value_or("?"), "one");
    EXPECT_EQ(cluster.readSync(2, 2).value_or("?"), "two");
}

TEST(WalRecovery, WholeGroupColdRestartHealsFromLogsAlone)
{
    // No survivor to stream from: every replica restarts from its own
    // log, every key restores Invalid, and the first read of each key
    // heals it through a §3.4 replay at the ORIGINAL timestamp — the
    // acknowledged value, not a regression, comes back.
    test::TempDir dir("recovery-cold");
    ClusterConfig config = durableConfig(dir.path());
    config.walFsync = store::FsyncPolicy::Every;
    {
        SimCluster cluster(config);
        cluster.start();
        for (Key key = 0; key < 40; ++key) {
            ASSERT_TRUE(cluster.writeSync(static_cast<NodeId>(key % 3),
                                          key,
                                          "cold-" + std::to_string(key)));
        }
    } // orderly teardown; the logs now hold every acknowledged write

    SimCluster cluster(config);
    cluster.start();
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_GT(cluster.replica(n).wal()->stats().recordsRecovered, 0u);
    for (Key key = 0; key < 40; ++key) {
        EXPECT_EQ(cluster.readSync(static_cast<NodeId>(key % 3), key,
                                   50_ms)
                      .value_or("?"),
                  "cold-" + std::to_string(key))
            << "key " << key;
        EXPECT_TRUE(cluster.converged(key)) << "key " << key;
    }
    EXPECT_GT(cluster.replica(0).hermes()->stats().replaysStarted, 0u);
}

TEST(WalRecovery, DurabilityOffMeansNoLogsAndNoRecovery)
{
    // The default config writes nothing anywhere: the knob is opt-in.
    SimCluster cluster(test::hermesConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "ephemeral"));
    EXPECT_EQ(cluster.replica(0).wal(), nullptr);
}

// ---------------------------------------------------------------------
// Acceptance: sharded history spanning a crash-and-recover
// ---------------------------------------------------------------------

TEST(WalRecovery, ShardedHistoryAcrossCrashRestartStaysLinearizable)
{
    // The paper-grade bar: S=4 x 3 under load, one replica of shard 0
    // crash-restarted mid-window from its WAL. The recorded history —
    // including writes acknowledged before the crash — must pass the
    // per-shard linearizability check, and the restarted node must end
    // the run fully operational.
    test::TempDir dir("recovery-sharded");
    ClusterConfig config = test::shardedConfig(Protocol::Hermes, 4, 3);
    config.walDir = dir.path();
    config.replica.hermesConfig.mlt = 200_us;
    config.seed = 5;

    SimCluster cluster(config);
    cluster.start();
    ASSERT_EQ(cluster.shardMap().shardOfNode(2), 0u);
    cluster.runtime().events().scheduleAt(
        12_ms, [&cluster] { cluster.crashRestartNode(2); });

    DriverConfig driver_config;
    driver_config.workload.numKeys = 1024;
    driver_config.workload.writeRatio = 0.2;
    driver_config.partitionSessionsByShard = true;
    driver_config.sessionsPerNode = 4;
    driver_config.warmup = 2_ms;
    driver_config.measure = 30_ms;
    driver_config.quiesceAfter = 100_ms; // outlive the rejoin
    driver_config.recordHistory = true;
    driver_config.seed = 17;

    LoadDriver driver(cluster, driver_config);
    DriverResult result = driver.run();

    // The run exercised the crash: ops completed before 12 ms (their
    // acks predate the fault) and all four shards saw traffic.
    std::set<uint32_t> shards_touched;
    uint64_t pre_crash_completed = 0;
    for (const HistOp &op : result.history.ops()) {
        shards_touched.insert(op.shard);
        if (!op.isPending() && op.response <= 12_ms)
            ++pre_crash_completed;
    }
    EXPECT_EQ(shards_touched.size(), 4u);
    EXPECT_GT(pre_crash_completed, 100u);

    // The restarted replica came all the way back...
    EXPECT_FALSE(cluster.replica(2).hermes()->isShadow());
    EXPECT_GT(cluster.replica(2).wal()->stats().recordsRecovered, 0u);
    // ...and the whole history linearizes, shard by shard.
    app::LinReport report = app::checkShardedHistory(result.history);
    EXPECT_TRUE(report.ok()) << report.detail;

    // The group accepts writes through the restarted node again.
    app::Workload workload(driver_config.workload);
    Rng rng(23);
    Key key0 = workload.nextKeyInShard(rng, 0, 4);
    EXPECT_TRUE(cluster.writeSync(2, key0, "post-recovery", 200_ms));
    EXPECT_TRUE(cluster.converged(key0));
}

} // namespace
} // namespace hermes
