/**
 * @file
 * Elastic sharding: SlotMap unit properties, the shared migration state
 * machine behind a fake runtime (verified cutover, abort at the bound,
 * crash-aware fences, replay nudges), live slot migration in the
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
#include "app/migration.hh"
#include "app/slot_map.hh"
#include "app/workload.hh"
#include "hermes/key_state.hh"
#include "store/kvs.hh"
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
using app::MigrationCoordinator;
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
// The shared state machine, behind a fake runtime
// ---------------------------------------------------------------------

/**
 * A source group of bare stores (replica i is node i) and a destination
 * that records what it is sent. Fences land only when a test says so; a
 * replica's life is whatever the test sets (0 = down).
 */
class FakeRuntime : public app::MigrationRuntime
{
  public:
    explicit FakeRuntime(size_t replicas)
    {
        for (size_t i = 0; i < replicas; ++i) {
            stores.push_back(std::make_unique<store::KvStore>(256, 64));
            lives.push_back(1);
        }
    }

    /** Store @p key at @p version with @p state on replica @p only, or
     *  on every replica when @p only is kInvalidNode. */
    void
    put(Key key, uint32_t version,
        proto::KeyState state = proto::KeyState::Valid,
        NodeId only = kInvalidNode)
    {
        for (NodeId n = 0; n < stores.size(); ++n) {
            if (only != kInvalidNode && n != only)
                continue;
            stores[n]->withKey(key, [&](store::KeyRecord &rec) {
                rec.meta().ts = Timestamp{version, 0};
                rec.meta().state = static_cast<uint8_t>(state);
                rec.setValue(test::strCat("v", version));
            });
        }
    }

    void
    landFences()
    {
        for (auto &landed : fences)
            landed();
        fences.clear();
    }

    std::vector<Replica>
    sourceReplicas(uint32_t) override
    {
        std::vector<Replica> live;
        for (NodeId n = 0; n < stores.size(); ++n) {
            if (lives[n] != 0)
                live.push_back({n, lives[n], false, stores[n].get()});
        }
        return live;
    }

    void
    copyToDestination(uint32_t, const std::vector<Entry> &entries) override
    {
        for (const Entry &e : entries) {
            copiedTs[e.key] = e.ts;
            ++copies[e.key];
        }
    }

    void
    fence(NodeId, std::function<void()> landed) override
    {
        fences.push_back(std::move(landed));
    }

    void
    nudge(NodeId replica, Key key) override
    {
        nudges.emplace_back(replica, key);
    }

    void
    installSuccessor(const std::vector<uint32_t> &, uint32_t) override
    {
        ++cutovers;
    }

    std::vector<std::unique_ptr<store::KvStore>> stores;
    std::vector<uint64_t> lives;
    std::vector<std::function<void()>> fences;
    std::map<Key, Timestamp> copiedTs;
    std::map<Key, int> copies;
    std::vector<std::pair<NodeId, Key>> nudges;
    int cutovers = 0;
};

/** admitOp's decision: "park" (nullopt), "track" (a commit hook) or
 *  "serve" (an empty hook). */
std::string
verdictOf(const std::optional<std::function<void()>> &hook)
{
    return !hook ? "park" : *hook ? "track" : "serve";
}

/** The reissue factory of an op the test does not expect to park. */
std::function<void()>
noReissue()
{
    return [] { ADD_FAILURE() << "an op parked unexpectedly re-ran"; };
}

class MigrationMachine : public ::testing::Test
{
  protected:
    /** The @p n -th key (from 0) that shard 0 owns under map_. */
    Key
    keyOfShard0(int n) const
    {
        for (Key k = 0;; ++k) {
            if (map_.ownerOf(k) == 0 && n-- == 0)
                return k;
        }
    }

    /** Start moving all of shard 0 to shard 1 and step to the lock. */
    void
    lockAfterFirstCopy(MigrationCoordinator &m)
    {
        ASSERT_TRUE(m.begin(map_, map_.slotsOwnedBy(0), 0, 1));
        ASSERT_TRUE(m.step()); // copies everything, dirty set empty
        ASSERT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);
    }

    SlotMap map_ = SlotMap::uniform(2);
};

TEST_F(MigrationMachine, CutsOverOnlyAfterStaleKeysAreRecopiedAndScanPasses)
{
    FakeRuntime rt(2);
    Key a = keyOfShard0(0), b = keyOfShard0(1);
    rt.put(a, 2);
    rt.put(b, 2);
    MigrationCoordinator m(rt, 64, 100);
    lockAfterFirstCopy(m);
    EXPECT_EQ(rt.copies[a], 1);
    EXPECT_EQ(rt.copies[b], 1);

    // Unlanded fences hold the final drain: no scan, no cutover.
    EXPECT_TRUE(m.step());
    EXPECT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);

    // A write admitted before the migration commits after a's copy.
    rt.put(a, 4);
    rt.landFences();
    EXPECT_TRUE(m.step()); // the scan flags a and queues its re-copy
    EXPECT_EQ(m.phase(), MigrationCoordinator::Phase::Verify);
    EXPECT_EQ(rt.cutovers, 0);
    EXPECT_EQ(rt.copies[a], 1);

    EXPECT_FALSE(m.step()); // re-copies a; the scan passes; cutover
    EXPECT_EQ(rt.copies[a], 2);
    EXPECT_EQ(rt.copiedTs[a], (Timestamp{4, 0}));
    EXPECT_EQ(rt.copies[b], 1);
    EXPECT_EQ(rt.cutovers, 1);
    EXPECT_FALSE(m.active());
    EXPECT_EQ(m.migrationsCompleted(), 1u);
    EXPECT_EQ(m.migrationsAborted(), 0u);
    EXPECT_EQ(m.slotsMigrated(), map_.slotsOwnedBy(0).size());
}

TEST_F(MigrationMachine, AbortsAtTheBoundAndHandsParkedOpsBackToTheSource)
{
    FakeRuntime rt(2);
    Key a = keyOfShard0(0);
    rt.put(a, 2);
    MigrationCoordinator m(rt, 64, 20);
    lockAfterFirstCopy(m);
    rt.landFences();

    // A write reaching the lock parks; a read is never parked, and the
    // destination group serves whatever it owns.
    bool delivered = false;
    auto write = m.admitOp(a, true, 0, 0, rt.lives[0], [&] {
        return [&] {
            delivered = true;
            // Re-run after the migration ended: admission serves it now.
            EXPECT_EQ(verdictOf(m.admitOp(a, true, 0, 0, rt.lives[0],
                                          noReissue)),
                      "serve");
        };
    });
    ASSERT_EQ(verdictOf(write), "park");
    EXPECT_FALSE(delivered);
    EXPECT_EQ(verdictOf(m.admitOp(a, false, 0, 0, rt.lives[0], noReissue)),
              "serve");
    EXPECT_EQ(verdictOf(m.admitOp(a, true, 1, 0, rt.lives[0], noReissue)),
              "serve");
    EXPECT_EQ(m.migrationWritesParked(), 1u);

    // A key wedged non-Valid on one source replica never verifies.
    rt.put(a, 2, proto::KeyState::Invalid, 1);
    int steps = 1;
    while (m.step())
        ASSERT_LE(++steps, 100) << "no abort at the bound";
    EXPECT_EQ(steps, 21); // 20 Locked steps, then the abort

    EXPECT_TRUE(delivered);
    EXPECT_EQ(rt.cutovers, 0);
    EXPECT_EQ(m.migrationsAborted(), 1u);
    EXPECT_EQ(m.migrationsCompleted(), 0u);
    EXPECT_EQ(m.slotsMigrated(), 0u);
    EXPECT_EQ(rt.copies[a], 1) << "a non-Valid key was re-copied";
}

TEST_F(MigrationMachine, EndedIncarnationReleasesFencesAndInflightWrites)
{
    FakeRuntime rt(3);
    Key a = keyOfShard0(0);
    rt.put(a, 2);
    MigrationCoordinator m(rt, 64, 100);
    ASSERT_TRUE(m.begin(map_, map_.slotsOwnedBy(0), 0, 1));
    // A write tracked at replica 1 before the lock, still committing.
    auto tracked = m.admitOp(a, true, 0, 1, rt.lives[1], noReissue);
    ASSERT_EQ(verdictOf(tracked), "track");
    ASSERT_TRUE(m.step());
    ASSERT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);
    ASSERT_EQ(rt.fences.size(), 3u);

    // Replica 2's fence never lands: it holds the lock while 2 lives.
    rt.fences[0]();
    rt.fences[1]();
    EXPECT_TRUE(m.step());
    EXPECT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);

    // Replica 2 crashes: its fence resolves, but the write in flight at
    // the live replica 1 still holds.
    rt.lives[2] = 0;
    EXPECT_TRUE(m.step());
    EXPECT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);

    // Replica 1 crash-restarts: the write died with its old life, never
    // acknowledged. Nothing holds; the scan passes; cutover.
    rt.lives[1] = 2;
    EXPECT_FALSE(m.step());
    EXPECT_EQ(rt.cutovers, 1);
    EXPECT_EQ(m.migrationsAborted(), 0u);
}

TEST_F(MigrationMachine, TrackedWriteHoldsTheLockUntilItsCommitHookRuns)
{
    FakeRuntime rt(2);
    Key a = keyOfShard0(0);
    rt.put(a, 2);
    MigrationCoordinator m(rt, 64, 100);
    ASSERT_TRUE(m.begin(map_, map_.slotsOwnedBy(0), 0, 1));
    auto tracked = m.admitOp(a, true, 0, 0, rt.lives[0], noReissue);
    ASSERT_EQ(verdictOf(tracked), "track");
    ASSERT_TRUE(m.step());
    ASSERT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);
    rt.landFences();
    EXPECT_TRUE(m.step());
    EXPECT_EQ(m.phase(), MigrationCoordinator::Phase::Locked);

    // The write commits: its hook re-dirties a and releases the lock.
    rt.put(a, 3);
    (*tracked)();
    EXPECT_TRUE(m.step()); // queues a for re-copy
    EXPECT_EQ(rt.copies[a], 1);
    EXPECT_FALSE(m.step()); // re-copies a; nothing holds; the scan passes
    EXPECT_EQ(rt.copies[a], 2);
    EXPECT_EQ(rt.copiedTs[a], (Timestamp{3, 0}));
    EXPECT_EQ(rt.cutovers, 1);
}

TEST_F(MigrationMachine, NudgesFromLockedStepTenOncePerNonValidKeyPerStep)
{
    FakeRuntime rt(2);
    Key a = keyOfShard0(0), b = keyOfShard0(1);
    rt.put(a, 2);
    rt.put(b, 2);
    rt.put(b, 2, proto::KeyState::Invalid, 1); // left by a dead writer
    MigrationCoordinator m(rt, 64, 100);
    lockAfterFirstCopy(m);
    rt.landFences();

    for (int step = 0; step < 15; ++step) {
        size_t before = rt.nudges.size();
        ASSERT_TRUE(m.step());
        size_t nudged = rt.nudges.size() - before;
        if (step < MigrationCoordinator::kNudgeAfterSteps) {
            EXPECT_EQ(nudged, 0u) << "step " << step;
            continue;
        }
        ASSERT_EQ(nudged, 1u) << "step " << step;
        EXPECT_EQ(rt.nudges.back(), std::make_pair(NodeId{1}, b));
    }

    // The replay heals b: the next scan passes.
    rt.put(b, 2);
    EXPECT_FALSE(m.step());
    EXPECT_EQ(rt.cutovers, 1);
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
    EXPECT_EQ(cluster.migration().migrationsCompleted(), 1u);
    EXPECT_EQ(cluster.migration().slotsMigrated(), moving.size());
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

/**
 * A hot key in a moving slot, rewritten continuously by a chain of
 * writes, or of `cas(last, next)` calls when @p cas: every catch-up
 * round finds it dirty again, so the coordinator must take the lock to
 * cut over — and the ops that hit the locked window park.
 */
void
racingOpsParkAtTheLockAndNoneAreLost(bool cas)
{
    SimCluster cluster(test::shardedConfig(Protocol::Hermes, 2, 3));
    cluster.start();

    Key hot = 0;
    while (app::shardOfKey(hot, 2) != 0)
        ++hot;
    ASSERT_TRUE(cluster.writeSync(cluster.routeNode(hot), hot, "w0"));

    uint64_t acked = 0;
    std::string last = "w0"; // the last value applied
    std::function<void(int)> pump = [&](int i) {
        if (i > 400)
            return;
        std::string next = test::strCat("w", i);
        if (!cas) {
            cluster.write(cluster.liveRouteNode(hot), hot, next,
                          [&, i, next] {
                              ++acked;
                              last = next;
                              pump(i + 1);
                          });
            return;
        }
        cluster.cas(cluster.liveRouteNode(hot), hot, last, next,
                    [&, i, next](bool ok, const Value &) {
                        if (ok) {
                            ++acked;
                            last = next;
                        }
                        pump(i + 1);
                    });
    };
    pump(1);

    cluster.migrateSlots({app::slotOfKey(hot)}, 0, 1);
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);
    ASSERT_FALSE(cluster.migrationActive());
    cluster.runFor(20_ms); // let the chain finish

    EXPECT_GT(cluster.migration().migrationWritesParked(), 0u)
        << "the hot key never hit the locked window";
    EXPECT_GT(acked, 100u);
    // The last applied op is what the destination serves: the parked
    // ops were resubmitted in order, none lost.
    EXPECT_EQ(cluster.shardOf(hot), 1u);
    EXPECT_EQ(cluster.readSync(cluster.routeNode(hot), hot).value_or("?"),
              last);
    if (!cas) {
        EXPECT_EQ(last, test::strCat("w", acked));
    }
    EXPECT_TRUE(cluster.converged(hot));
}

TEST(LiveMigration, WritesRacingTheMoveParkAtTheLockAndNoneAreLost)
{
    racingOpsParkAtTheLockAndNoneAreLost(false);
}

TEST(LiveMigration, CasRacingTheMoveParksAtTheLockAndNoneAreLost)
{
    racingOpsParkAtTheLockAndNoneAreLost(true);
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
    EXPECT_EQ(cluster.migration().migrationsAborted(), 1u);
    EXPECT_EQ(cluster.migration().migrationsCompleted(), 0u);
    EXPECT_EQ(cluster.migration().slotsMigrated(), 0u);
    // Ownership never moved: same epoch, every slot still at the source.
    EXPECT_EQ(cluster.slotMap().epoch, 1u);
    for (uint32_t slot : moving)
        EXPECT_EQ(cluster.slotMap().ownerOfSlot(slot), 0u);
}

TEST(LiveMigration, SourceCrashJustAfterLockCutsOverVerified)
{
    // A source replica crash-stops right after the lock engages, taking
    // its unlanded fence with it. The fence must not hold the lock: the
    // scan over the survivors passes and the move cuts over, verified,
    // well before the Locked-phase bound (10 ms).
    SimCluster cluster(test::shardedConfig(Protocol::Hermes, 2, 3));
    cluster.start();
    for (Key key = 0; key < 100; ++key) {
        ASSERT_TRUE(cluster.writeSync(cluster.routeNode(key), key,
                                      test::strCat("v", key)));
    }

    // Few enough keys for one copy batch: the first step copies them
    // all, finds nothing dirty and engages the lock.
    std::vector<uint32_t> moving = cluster.slotMap().slotsOwnedBy(0);
    moving.resize(64);
    cluster.migrateSlots(moving, 0, 1);
    ASSERT_EQ(cluster.migration().phase(),
              MigrationCoordinator::Phase::Locked);
    NodeId victim = cluster.shardMap().nodesOf(0).back();
    cluster.crash(victim);

    TimeNs crashed_at = cluster.now();
    while (cluster.migrationActive() && cluster.now() < crashed_at + 5_ms)
        cluster.runFor(100_us);
    EXPECT_FALSE(cluster.migrationActive())
        << "the dead replica's fence held the lock";
    EXPECT_EQ(cluster.migration().migrationsAborted(), 0u);
    EXPECT_EQ(cluster.migration().migrationsCompleted(), 1u);
    EXPECT_EQ(cluster.slotMap().epoch, 2u);
    for (Key key = 0; key < 100; ++key) {
        EXPECT_EQ(cluster.readSync(cluster.liveRouteNode(key), key)
                      .value_or("?"),
                  test::strCat("v", key))
            << "key " << key;
    }
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
        EXPECT_EQ(cluster.migration().migrationsCompleted(), 1u);
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

TEST_F(MigrationFaults, WalRestartAfterCutoverLogsUnderTheLiveEpoch)
{
    // A new Wal starts at map epoch 1. A destination replica restarted
    // after a cutover must log under the live map's epoch before it
    // serves, not under 1 until the next map install.
    test::TempDir dir("migration-wal-epoch");
    SimCluster &cluster = makeCluster(durableSharded(dir.path(), 34));
    cluster.migrateSlots(quarterOfShard0(), 0, 1);
    for (int i = 0; i < 200 && cluster.migrationActive(); ++i)
        cluster.runFor(1_ms);
    ASSERT_FALSE(cluster.migrationActive());
    ASSERT_EQ(cluster.slotMap().epoch, 2u);

    const NodeId destination = 4;
    ASSERT_EQ(cluster.shardMap().shardOfNode(destination), 1u);
    EXPECT_EQ(cluster.replica(destination).wal()->mapEpoch(), 2u);
    cluster.crashRestartNode(destination);
    cluster.runFor(60_ms); // the rejoin: views, the stamp, the sync
    EXPECT_FALSE(cluster.replica(destination).hermes()->isShadow());
    EXPECT_EQ(cluster.replica(destination).wal()->mapEpoch(), 2u);
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
    EXPECT_EQ(cluster.migration().migrationsCompleted(), 1u);
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
