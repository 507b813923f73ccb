/**
 * @file
 * Elastic sharding: SlotMap unit properties, live slot migration in the
 * simulated cluster (snapshot + catch-up + locked cutover), the
 * crash-fault matrix across the move (source mid-snapshot, destination
 * mid-catch-up, WAL crash-restart straddling the cutover), and the
 * acceptance run — a >= 10k-op concurrent-client history spanning a
 * live migration with a source-replica crash-and-restart mid-transfer,
 * linearizable shard by shard.
 */

#include <gtest/gtest.h>

#include <set>

#include "app/cluster.hh"
#include "app/driver.hh"
#include "app/lin_checker.hh"
#include "app/slot_map.hh"
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
using app::kNumSlots;
using app::LoadDriver;
using app::Protocol;
using app::SimCluster;
using app::SlotMap;

// ---------------------------------------------------------------------
// SlotMap properties
// ---------------------------------------------------------------------

TEST(SlotMapTest, UniformPlacementMatchesStaticHash)
{
    // The epoch-1 map IS shardOfKey: the static hash every client can
    // compute without a map must agree with the fresh map on every key.
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        SlotMap map = SlotMap::uniform(shards);
        EXPECT_EQ(map.epoch, 1u);
        EXPECT_EQ(map.numShards, shards);
        ASSERT_EQ(map.owner.size(), kNumSlots);
        for (Key key = 0; key < 4096; ++key)
            EXPECT_EQ(map.ownerOf(key), app::shardOfKey(key, shards));
    }
}

TEST(SlotMapTest, EverySlotHasExactlyOneOwnerAndSlotsPartitionKeys)
{
    SlotMap map = SlotMap::uniform(4);
    // slotsOwnedBy partitions the slot space.
    std::set<uint32_t> seen;
    for (uint32_t s = 0; s < 4; ++s) {
        for (uint32_t slot : map.slotsOwnedBy(s)) {
            EXPECT_EQ(map.ownerOfSlot(slot), s);
            EXPECT_TRUE(seen.insert(slot).second);
        }
    }
    EXPECT_EQ(seen.size(), kNumSlots);
    // slotOfKey is total and stable.
    for (Key key = 0; key < 4096; ++key) {
        uint32_t slot = app::slotOfKey(key);
        ASSERT_LT(slot, kNumSlots);
        EXPECT_EQ(slot, app::slotOfKey(key));
    }
}

TEST(SlotMapTest, MoveBumpsEpochAndRepointsOnlyTheMovedSlots)
{
    SlotMap map = SlotMap::uniform(4);
    std::vector<uint32_t> moved = {0, 4, 8, 100};
    for (uint32_t s : moved)
        ASSERT_EQ(map.ownerOfSlot(s), 0u); // uniform: slot % 4
    SlotMap next = map.withSlotsMovedTo(moved, 3);
    EXPECT_EQ(next.epoch, map.epoch + 1);
    EXPECT_EQ(next.numShards, map.numShards);
    for (uint32_t slot = 0; slot < kNumSlots; ++slot) {
        bool was_moved =
            std::find(moved.begin(), moved.end(), slot) != moved.end();
        EXPECT_EQ(next.ownerOfSlot(slot),
                  was_moved ? 3u : map.ownerOfSlot(slot))
            << "slot " << slot;
    }
    // The source map is untouched (value semantics).
    EXPECT_EQ(map.epoch, 1u);
    EXPECT_EQ(map.ownerOfSlot(0), 0u);
}

TEST(SlotMapTest, ShardCountGrowsWithoutMovingData)
{
    // addShard semantics: the new shard exists but owns nothing until a
    // migration moves slots to it — growing the count relocates no key.
    SlotMap map = SlotMap::uniform(2);
    SlotMap grown = map.withShardCount(3);
    EXPECT_EQ(grown.epoch, map.epoch + 1);
    EXPECT_EQ(grown.numShards, 3u);
    for (uint32_t slot = 0; slot < kNumSlots; ++slot)
        EXPECT_EQ(grown.ownerOfSlot(slot), map.ownerOfSlot(slot));
    EXPECT_TRUE(grown.slotsOwnedBy(2).empty());
}

// ---------------------------------------------------------------------
// Live migration, happy path
// ---------------------------------------------------------------------

TEST(LiveMigration, MovedSlotsServeAtTheDestinationWithTheirData)
{
    SimCluster cluster(test::shardedConfig(Protocol::Hermes, 2, 3));
    cluster.start();

    for (Key key = 0; key < 200; ++key) {
        ASSERT_TRUE(cluster.writeSync(cluster.routeNode(key), key,
                                      test::strCat("v", key)));
    }

    // Move half of shard 0's slots to shard 1.
    std::vector<uint32_t> all = cluster.slotMap().slotsOwnedBy(0);
    std::vector<uint32_t> moving(all.begin(), all.begin() + all.size() / 2);
    cluster.migrateSlots(moving, 0, 1);
    ASSERT_TRUE(cluster.migrationActive());
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);
    ASSERT_FALSE(cluster.migrationActive());

    EXPECT_EQ(cluster.slotMap().epoch, 2u);
    EXPECT_EQ(cluster.migrationsCompleted(), 1u);
    EXPECT_EQ(cluster.slotsMigrated(), moving.size());
    std::set<uint32_t> moved(moving.begin(), moving.end());
    for (uint32_t slot : moving)
        EXPECT_EQ(cluster.slotMap().ownerOfSlot(slot), 1u);

    size_t keys_moved = 0;
    for (Key key = 0; key < 200; ++key) {
        bool in_moved = moved.count(app::slotOfKey(key)) > 0;
        uint32_t expect_shard =
            in_moved ? 1u : app::shardOfKey(key, 2);
        EXPECT_EQ(cluster.shardOf(key), expect_shard) << "key " << key;
        // Every moved key reads back its value from the NEW owner's
        // replicas, through normal routing.
        EXPECT_EQ(cluster.readSync(cluster.routeNode(key), key)
                      .value_or("?"),
                  test::strCat("v", key))
            << "key " << key;
        EXPECT_TRUE(cluster.converged(key)) << "key " << key;
        if (in_moved && app::shardOfKey(key, 2) == 0)
            ++keys_moved;
    }
    EXPECT_GT(keys_moved, 20u) << "migration barely moved anything";

    // Post-cutover writes land at the destination and stick.
    for (Key key = 0; key < 200; ++key) {
        if (moved.count(app::slotOfKey(key)) == 0)
            continue;
        ASSERT_TRUE(cluster.writeSync(cluster.routeNode(key), key, "post"));
        EXPECT_EQ(cluster.readSync(cluster.routeNode(key), key)
                      .value_or("?"),
                  "post");
        break;
    }
}

TEST(LiveMigration, WritesRacingTheMoveParkAtTheLockAndNoneAreLost)
{
    SimCluster cluster(test::shardedConfig(Protocol::Hermes, 2, 3));
    cluster.start();

    // A hot key in a moving slot, rewritten continuously: every catch-up
    // round finds it dirty again, so the coordinator must take the lock
    // to cut over — and the writes that hit the locked window park.
    Key hot = 0;
    while (app::shardOfKey(hot, 2) != 0)
        ++hot;
    ASSERT_TRUE(cluster.writeSync(cluster.routeNode(hot), hot, "w0"));

    uint64_t acked = 0;
    std::function<void(int)> pump = [&](int i) {
        if (i > 400)
            return;
        cluster.write(cluster.liveRouteNode(hot), hot,
                      test::strCat("w", i), [&acked, &pump, i] {
                          ++acked;
                          pump(i + 1);
                      });
    };
    pump(1);

    cluster.migrateSlots({app::slotOfKey(hot)}, 0, 1);
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);
    ASSERT_FALSE(cluster.migrationActive());
    cluster.runFor(20_ms); // let the write chain finish

    EXPECT_GT(cluster.migrationWritesParked(), 0u)
        << "the hot key never hit the locked window";
    EXPECT_GT(acked, 100u);
    // The last acknowledged write is what the destination serves: the
    // parked writes were resubmitted in order, none lost.
    EXPECT_EQ(cluster.shardOf(hot), 1u);
    EXPECT_EQ(cluster.readSync(cluster.routeNode(hot), hot).value_or("?"),
              test::strCat("w", acked));
    EXPECT_TRUE(cluster.converged(hot));
}

TEST(LiveMigration, SourceGroupDownAbortsInsteadOfCuttingOver)
{
    // Every source replica crash-stops mid-move. Nothing can be read,
    // re-copied or verified, so cutting over would strand every uncopied
    // acknowledged write behind the post-cutover WAL recovery filter.
    // The only safe outcome is an ABORT: ownership stays with the
    // source, the map never advances.
    SimCluster cluster(test::shardedConfig(Protocol::Hermes, 2, 3));
    cluster.start();

    for (Key key = 0; key < 100; ++key) {
        ASSERT_TRUE(cluster.writeSync(cluster.routeNode(key), key,
                                      test::strCat("v", key)));
    }

    std::vector<uint32_t> all = cluster.slotMap().slotsOwnedBy(0);
    std::vector<uint32_t> moving(all.begin(), all.begin() + all.size() / 2);
    cluster.migrateSlots(moving, 0, 1);
    ASSERT_TRUE(cluster.migrationActive());

    for (NodeId n : cluster.shardMap().nodesOf(0))
        cluster.crash(n);

    // The Locked phase waits its bounded kMaxLockedWaitSteps, finds no
    // operational source, and aborts (well inside this budget).
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);

    EXPECT_FALSE(cluster.migrationActive());
    EXPECT_EQ(cluster.migrationsAborted(), 1u);
    EXPECT_EQ(cluster.migrationsCompleted(), 0u);
    EXPECT_EQ(cluster.slotsMigrated(), 0u);
    // Ownership never moved: same epoch, every slot still at the source.
    EXPECT_EQ(cluster.slotMap().epoch, 1u);
    for (uint32_t slot : moving)
        EXPECT_EQ(cluster.slotMap().ownerOfSlot(slot), 0u);
}

// ---------------------------------------------------------------------
// Crash-fault matrix across the move
// ---------------------------------------------------------------------

class MigrationFaults : public test::ClusterTest
{
  protected:
    static ClusterConfig
    durableSharded(const std::string &wal_dir, uint64_t seed)
    {
        ClusterConfig config =
            test::shardedConfig(Protocol::Hermes, 2, 3);
        config.walDir = wal_dir;
        config.replica.hermesConfig.mlt = 200_us;
        config.seed = seed;
        return config;
    }

    static DriverConfig
    migrationDriver(uint64_t seed)
    {
        DriverConfig config;
        config.workload.numKeys = 512;
        config.workload.writeRatio = 0.3;
        config.workload.casRatio = 0.05;
        config.sessionsPerNode = 6;
        config.warmup = 1_ms;
        config.measure = 30_ms;
        config.quiesceAfter = 120_ms; // outlive rejoin + locked drain
        config.recordHistory = true;
        config.seed = seed;
        return config;
    }

    /**
     * First 256 slots owned by shard 0 under the uniform 2-shard map
     * (shard = slot % 2): the even slots below 512.
     */
    static std::vector<uint32_t>
    quarterOfShard0()
    {
        std::vector<uint32_t> slots;
        for (uint32_t s = 0; s < 512; s += 2)
            slots.push_back(s);
        return slots;
    }

    /** Is @p slot in quarterOfShard0()? */
    static bool
    inMovingSet(uint32_t slot)
    {
        return slot % 2 == 0 && slot < 512;
    }

    void
    runFaultedMigration(SimCluster &cluster, TimeNs migrate_at,
                        TimeNs crash_at, NodeId crash_node)
    {
        cluster.scheduleMigration(migrate_at, quarterOfShard0(), 0, 1);
        cluster.runtime().events().scheduleAt(
            crash_at, [&cluster, crash_node] {
                cluster.crashRestartNode(crash_node);
            });

        LoadDriver driver(cluster, migrationDriver(21));
        result_ = driver.run();

        // The migration completed despite the fault, the map advanced,
        // and the whole recorded history linearizes shard by shard.
        EXPECT_FALSE(cluster.migrationActive());
        EXPECT_EQ(cluster.migrationsCompleted(), 1u);
        EXPECT_EQ(cluster.slotMap().epoch, 2u);
        app::LinReport report = app::checkShardedHistory(result_.history);
        EXPECT_TRUE(report.ok()) << report.detail;

        // Moved slots serve reads and writes at the destination.
        Key moved_key = 0;
        while (!inMovingSet(app::slotOfKey(moved_key)))
            ++moved_key;
        EXPECT_EQ(cluster.shardOf(moved_key), 1u);
        EXPECT_TRUE(cluster.writeSync(cluster.liveRouteNode(moved_key),
                                      moved_key, "post-fault", 200_ms));
        EXPECT_TRUE(cluster.converged(moved_key));
    }

    DriverResult result_;
};

TEST_F(MigrationFaults, SourceReplicaCrashRestartMidSnapshot)
{
    test::TempDir dir("migration-src-crash");
    SimCluster &cluster = makeCluster(durableSharded(dir.path(), 31));
    // Node 0 is shard 0's lowest-id replica — the transfer's reader.
    // Killing it mid-snapshot forces the copy onto the next survivor.
    ASSERT_EQ(cluster.shardMap().shardOfNode(0), 0u);
    runFaultedMigration(cluster, 8_ms, 8_ms + 300_us, 0);
    EXPECT_FALSE(cluster.replica(0).hermes()->isShadow());
}

TEST_F(MigrationFaults, DestinationReplicaCrashRestartMidCatchUp)
{
    test::TempDir dir("migration-dst-crash");
    SimCluster &cluster = makeCluster(durableSharded(dir.path(), 32));
    // Node 4 is a shard 1 (destination) replica. It loses install jobs
    // while down; the post-restart shadow sync from its survivors must
    // hand it the migrated entries it missed.
    ASSERT_EQ(cluster.shardMap().shardOfNode(4), 1u);
    runFaultedMigration(cluster, 8_ms, 9_ms, 4);
    EXPECT_FALSE(cluster.replica(4).hermes()->isShadow());
}

TEST_F(MigrationFaults, WalRestartAfterCutoverSkipsMovedSlots)
{
    // The recovery-ownership filter, observed directly: a source replica
    // restarted AFTER the cutover holds WAL records for keys whose slots
    // moved away. Its ctor replay must skip exactly those — resurrecting
    // them would fork ownership the map took away.
    test::TempDir dir("migration-wal-filter");
    ClusterConfig config = durableSharded(dir.path(), 33);
    config.walFsync = store::FsyncPolicy::Every;
    SimCluster &cluster = makeCluster(config);

    Key moved_key = 0;
    while (!inMovingSet(app::slotOfKey(moved_key)))
        ++moved_key;
    // Kept by shard 0: an even slot OUTSIDE the moving half (>= 512).
    Key kept_key = 0;
    while (app::slotOfKey(kept_key) % 2 != 0
           || inMovingSet(app::slotOfKey(kept_key)))
        ++kept_key;

    ASSERT_TRUE(cluster.writeSync(cluster.routeNode(moved_key), moved_key,
                                  "moved"));
    ASSERT_TRUE(cluster.writeSync(cluster.routeNode(kept_key), kept_key,
                                  "kept"));

    cluster.migrateSlots(quarterOfShard0(), 0, 1);
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);
    ASSERT_FALSE(cluster.migrationActive());

    // Restart source replica 2. makeReplica replays the WAL in its
    // ctor, synchronously — inspect the store before the shadow sync
    // (scheduled as jobs) can repopulate anything.
    cluster.crashRestartNode(2);
    EXPECT_FALSE(cluster.replica(2).kvStore().read(moved_key).found)
        << "replay resurrected a slot this shard no longer owns";
    EXPECT_TRUE(cluster.replica(2).kvStore().read(kept_key).found)
        << "replay dropped a record the shard still owns";

    cluster.runFor(60_ms); // finish the rejoin
    EXPECT_FALSE(cluster.replica(2).hermes()->isShadow());
    EXPECT_EQ(cluster.readSync(cluster.routeNode(kept_key), kept_key)
                  .value_or("?"),
              "kept");
    EXPECT_EQ(cluster.readSync(cluster.routeNode(moved_key), moved_key)
                  .value_or("?"),
              "moved");
}

// ---------------------------------------------------------------------
// Acceptance: >= 10k ops across a live migration + source crash-restart
// ---------------------------------------------------------------------

TEST_F(MigrationFaults, AcceptanceHistorySpansMigrationAndSourceCrash)
{
    test::TempDir dir("migration-acceptance");
    SimCluster &cluster = makeCluster(durableSharded(dir.path(), 7));

    cluster.scheduleMigration(10_ms, quarterOfShard0(), 0, 1);
    cluster.runtime().events().scheduleAt(10_ms + 400_us, [&cluster] {
        cluster.crashRestartNode(1); // source replica, mid-transfer
    });

    DriverConfig driver_config = migrationDriver(19);
    driver_config.sessionsPerNode = 10;
    driver_config.workload.numKeys = 1024;
    LoadDriver driver(cluster, driver_config);
    DriverResult result = driver.run();

    ASSERT_GE(result.opsTotal, 10000u) << "acceptance floor";
    EXPECT_FALSE(cluster.migrationActive());
    EXPECT_EQ(cluster.migrationsCompleted(), 1u);
    EXPECT_EQ(cluster.slotMap().epoch, 2u);
    EXPECT_FALSE(cluster.replica(1).hermes()->isShadow());

    // Ops completed on both sides of the migration window, and the
    // moved slots saw post-cutover traffic at their new home.
    uint64_t before = 0, after = 0, moved_at_dest = 0;
    for (const HistOp &op : result.history.ops()) {
        if (op.isPending())
            continue;
        if (op.response <= 10_ms)
            ++before;
        if (op.invoke >= 15_ms)
            ++after;
        if (inMovingSet(app::slotOfKey(op.key)) && op.shard == 1)
            ++moved_at_dest;
    }
    EXPECT_GT(before, 500u);
    EXPECT_GT(after, 500u);
    EXPECT_GT(moved_at_dest, 50u)
        << "no traffic reached the moved slots' new owner";

    app::LinReport report = app::checkShardedHistory(
        result.history, 1u << 22, app::LinMode::Jit);
    EXPECT_TRUE(report.ok()) << report.detail;
}

} // namespace
} // namespace hermes
