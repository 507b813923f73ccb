/**
 * @file
 * Elastic sharding over real sockets: the versioned slot map advertised
 * at HELLO / WrongShard, live slot migration between running shard
 * groups (snapshot copy + catch-up + locked cutover) under concurrent
 * clients, deployment grow/shrink (addShard / removeShard), the
 * epoch-discipline bugfixes on both sides of the wire — clients discard
 * maps OLDER than the one they adopted, services reject request stamps
 * from their FUTURE before indexing anything — and the acceptance bar:
 * a >= 10k-op concurrent history spanning a live migration with a
 * source-replica crash-restart mid-move, linearizability-checked.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "app/cluster.hh"
#include "app/lin_checker.hh"
#include "app/slot_map.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "store/wal.hh"
#include "support/free_port.hh"
#include "support/stale_map.hh"
#include "support/str_cat.hh"
#include "support/temp_dir.hh"

namespace hermes
{
namespace
{

using app::kNumSlots;
using app::KvClient;
using app::KvSessionClient;
using app::Protocol;
using app::ReplicaOptions;
using app::ShardedTcpDeployment;
using app::SlotMap;
using app::TcpKvService;

// Where this suite's PortLanes start probing, clear of the other TCP
// suites' starts: test_tcp 21000+, test_zero_copy 21320,
// test_tcp_recovery 22000+, test_sharded_tcp 23000+, test_sessions
// 24000+, test_elastic_tcp 25000+.
constexpr uint16_t kBasePort = 25000;

ReplicaOptions
tcpOptions()
{
    ReplicaOptions options;
    options.storeCapacity = 1 << 12;
    options.maxValueSize = 256;
    options.hermesConfig.mlt = 50_ms; // wall-clock timers
    return options;
}

TimeNs
wallNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** First @p count slots owned by @p shard under @p map, ascending. */
std::vector<uint32_t>
slotsOwnedPrefix(const SlotMap &map, uint32_t shard, size_t count)
{
    std::vector<uint32_t> slots = map.slotsOwnedBy(shard);
    if (slots.size() > count)
        slots.resize(count);
    return slots;
}

/** First key (from @p start) whose slot is in @p slots. */
Key
keyInSlots(const std::vector<uint32_t> &slots, Key start = 1)
{
    std::set<uint32_t> in(slots.begin(), slots.end());
    for (Key k = start;; ++k) {
        if (in.count(app::slotOfKey(k)))
            return k;
    }
}

/** First key (from @p start) owned by @p shard but NOT in @p slots. */
Key
keyOwnedOutsideSlots(const SlotMap &map, uint32_t shard,
                     const std::vector<uint32_t> &slots, Key start = 1)
{
    std::set<uint32_t> in(slots.begin(), slots.end());
    for (Key k = start;; ++k) {
        uint32_t slot = app::slotOfKey(k);
        if (map.ownerOfSlot(slot) == shard && !in.count(slot))
            return k;
    }
}

/** Poll (off-loop, via runOn) until the replica left shadow mode. */
bool
awaitRejoin(TcpKvService &service, NodeId id, DurationNs budget)
{
    TimeNs deadline = wallNowNs() + budget;
    while (wallNowNs() < deadline) {
        bool shadow = true;
        service.cluster().runOn(id, [&] {
            shadow = service.replica(id).hermes()->isShadow();
        });
        if (!shadow)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

TEST(ElasticTcp, HelloTeachesSlotOwnersMatchingLegacyHash)
{
    // At epoch 1 the uniform slot map must route exactly like the old
    // `hash % S` — the indirection changes nothing until a slot moves.
    // The client learns the owners table at HELLO and routes by it.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort, kShards * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    EXPECT_EQ(deployment.slotMap().epoch, 1u);
    KvClient client(deployment.portOf(2, 1));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.mapEpoch(), 1u);
    for (Key key = 1; key <= 200; ++key)
        EXPECT_EQ(client.routedShard(key), app::shardOfKey(key, kShards))
            << "key " << key;

    for (Key key = 1; key <= 12; ++key) {
        ASSERT_TRUE(client.write(key, test::strCat("v", key)));
        EXPECT_EQ(client.read(key).value_or("?"), test::strCat("v", key));
    }
}

TEST(ElasticTcp, LiveMigrationMovesDataAndBumpsEpoch)
{
    // A live quarter-of-the-keyspace move between running groups: the
    // moved slots' data serves at the destination afterwards, the map
    // epoch advances, and a client that adopted the PRE-move map heals
    // through the WrongShard reroute — no op lost, no op misplaced.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 16, 6);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, tcpOptions(),
                                    config);
    deployment.start();

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.connected());
    for (Key key = 1; key <= 64; ++key)
        ASSERT_TRUE(client.write(key, test::strCat("pre-", key)));

    std::vector<uint32_t> moving =
        slotsOwnedPrefix(deployment.slotMap(), 0, 128);
    ASSERT_EQ(deployment.migrateSlots(moving, 0, 1), moving.size());
    EXPECT_EQ(deployment.slotMap().epoch, 2u);
    EXPECT_EQ(deployment.migration().migrationsCompleted(), 1u);
    EXPECT_EQ(deployment.migration().slotsMigrated(),
              moving.size()); // 128 slots
    for (uint32_t slot : moving)
        EXPECT_EQ(deployment.slotMap().ownerOfSlot(slot), 1u);

    // The stale-map client: every key keeps its value, reads and writes
    // route through the redirect to wherever the slot lives now.
    for (Key key = 1; key <= 64; ++key) {
        EXPECT_EQ(client.read(key).value_or("?"),
                  test::strCat("pre-", key))
            << "key " << key;
        ASSERT_TRUE(client.write(key, test::strCat("post-", key)));
    }
    EXPECT_EQ(client.mapEpoch(), 2u); // the reroute taught the new map

    // A fresh client learns the post-move owners at HELLO and routes
    // moved keys straight to the destination.
    KvClient fresh(deployment.portOf(1, 2));
    ASSERT_TRUE(fresh.connected());
    EXPECT_EQ(fresh.mapEpoch(), 2u);
    Key moved_key = keyInSlots(moving);
    EXPECT_EQ(fresh.routedShard(moved_key), 1u);
    EXPECT_EQ(fresh.read(moved_key).value_or("?"),
              test::strCat("post-", moved_key));

    // The destination group REALLY holds the moved data: ask it with a
    // shard-local client (no cross-group reroute possible).
    KvClient dest_local(deployment.portOf(1, 0));
    EXPECT_EQ(dest_local.read(moved_key).value_or("?"),
              test::strCat("post-", moved_key));
}

TEST(ElasticTcp, AbortedMigrationServesParkedOpsAtTheSource)
{
    // The safe degraded outcome when cutover verification cannot pass:
    // abortMigration drops the interception state WITHOUT moving
    // ownership, and every op parked at the lock re-enters the normal
    // request path — acknowledged at the SOURCE, which still owns the
    // slots, under the unchanged epoch-1 map.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 240, 6);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, tcpOptions(),
                                    config);
    deployment.start();

    std::vector<uint32_t> moving =
        slotsOwnedPrefix(deployment.slotMap(), 0, 64);
    Key moved_key = keyInSlots(moving);

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.write(moved_key, "pre"));

    // Arm and lock the source group's interception directly (the
    // coordinator's part of a move that will fail verification).
    ASSERT_TRUE(deployment.beginMigration(moving, 0, 1));
    deployment.migration().lock();

    // A write on a locked moving slot parks: it must NOT complete until
    // the abort releases it.
    std::atomic<bool> done{false};
    std::atomic<bool> ok{false};
    std::thread writer([&] {
        KvClient parked(deployment.portOf(0, 1));
        ok = parked.connected() && parked.write(moved_key, "parked");
        done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(done) << "locked-slot write was not parked";

    deployment.migration().abort();
    writer.join();
    EXPECT_TRUE(ok) << "parked write was not acknowledged after abort";

    // Ownership never moved: same epoch, the source serves the parked
    // write's value, and a fresh client still routes the key to shard 0.
    EXPECT_EQ(deployment.slotMap().epoch, 1u);
    EXPECT_EQ(client.read(moved_key).value_or("?"), "parked");
    KvClient fresh(deployment.portOf(1, 0));
    ASSERT_TRUE(fresh.connected());
    EXPECT_EQ(fresh.mapEpoch(), 1u);
    EXPECT_EQ(fresh.routedShard(moved_key), 0u);
    EXPECT_EQ(fresh.read(moved_key).value_or("?"), "parked");
}

TEST(ElasticTcp, FutureEpochStampRejectedBeforeIndexing)
{
    // THE service-side bugfix case: a raw client stamping a map epoch
    // from this service's FUTURE (garbage 0xFFFFFFFF, or any epoch it
    // never installed) must get WrongShard + the authoritative map
    // back BEFORE the key is hashed or the op indexed — the op must NOT
    // execute even when every other field is perfectly routed.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 48, 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/1);
    service.start();

    // A baseline value through the sane path.
    KvClient sane(service.portOf(2));
    Key owned = 0;
    for (Key k = 1;; ++k) {
        if (app::shardOfKey(k, kShards) == 1) {
            owned = k;
            break;
        }
    }
    ASSERT_TRUE(sane.write(owned, "real"));

    net::TcpClient raw(service.portOf(0));
    ASSERT_TRUE(raw.connected());
    uint64_t req_id = 1;
    auto expectRejected = [&](uint32_t epoch, uint32_t num_shards,
                              uint32_t shard) {
        net::ClientRequestMsg request;
        request.op = net::ClientRequestMsg::Op::Write;
        request.reqId = req_id++;
        request.key = owned;
        request.shard = shard;
        request.numShards = num_shards;
        request.mapEpoch = epoch;
        request.value = "phantom";
        auto reply = raw.call(request, 5_s);
        ASSERT_TRUE(reply);
        ASSERT_EQ(reply->type(), net::MsgType::ClientReply);
        auto &r = static_cast<net::ClientReplyMsg &>(*reply);
        EXPECT_EQ(r.status, net::ClientReplyMsg::Status::WrongShard)
            << "epoch " << epoch;
        // The rejection teaches the authoritative map: current epoch,
        // full owners table, full address map.
        EXPECT_EQ(r.mapEpoch, 1u);
        EXPECT_EQ(r.mapShards, kShards);
        EXPECT_EQ(r.mapShard, 1u);
        ASSERT_EQ(r.slotOwners.size(), kNumSlots);
        for (uint32_t slot = 0; slot < kNumSlots; ++slot)
            EXPECT_EQ(r.slotOwners[slot], slot % kShards);
        ASSERT_EQ(r.mapPorts.size(), kShards);
    };

    // Perfectly routed except for the epoch — and pure garbage.
    expectRejected(/*epoch=*/0xFFFFFFFFu, kShards, /*shard=*/1);
    expectRejected(/*epoch=*/2, kShards, /*shard=*/1);
    expectRejected(/*epoch=*/0xFFFFFFFFu, /*num_shards=*/7777,
                   /*shard=*/0xFFFFFFFFu);

    // None of the rejected writes executed.
    EXPECT_EQ(sane.read(owned).value_or("?"), "real");

    // Epoch 0 (a pre-slot-map client that stamps nothing) and the
    // current epoch both serve.
    for (uint32_t epoch : {0u, 1u}) {
        net::ClientRequestMsg request;
        request.op = net::ClientRequestMsg::Op::Write;
        request.reqId = req_id++;
        request.key = owned;
        request.shard = 1;
        request.numShards = kShards;
        request.mapEpoch = epoch;
        request.value = test::strCat("epoch-", epoch);
        auto reply = raw.call(request, 5_s);
        ASSERT_TRUE(reply);
        auto &r = static_cast<net::ClientReplyMsg &>(*reply);
        EXPECT_EQ(r.status, net::ClientReplyMsg::Status::Ok);
    }
    EXPECT_EQ(sane.read(owned).value_or("?"), "epoch-1");
}

TEST(ElasticTcp, ClientDiscardsMapsOlderThanAdopted)
{
    // THE client-side bugfix case: once a client adopts the epoch-2
    // post-migration map, a delayed reply still carrying the epoch-1
    // map (e.g. from a replica that answered just before installing the
    // cutover) must NOT roll its routing back to the migration source.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 80, 6);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, tcpOptions(),
                                    config);
    deployment.start();

    std::vector<uint32_t> moving =
        slotsOwnedPrefix(deployment.slotMap(), 0, 64);
    const SlotMap old_map = deployment.slotMap(); // epoch 1, pre-move
    ASSERT_EQ(deployment.migrateSlots(moving, 0, 1), moving.size());

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.mapEpoch(), 2u);
    Key moved_key = keyInSlots(moving);
    ASSERT_EQ(client.routedShard(moved_key), 1u);

    // The laggard reply: epoch 1 with the pre-move owners table.
    net::ClientReplyMsg laggard;
    laggard.status = net::ClientReplyMsg::Status::WrongShard;
    laggard.mapShards = 2;
    laggard.mapShard = 0;
    laggard.mapEpoch = old_map.epoch;
    laggard.slotOwners = old_map.owner;
    laggard.mapPorts = deployment.addressMap();
    EXPECT_FALSE(client.adoptAdvertisedMap(laggard))
        << "a map OLDER than the adopted epoch must teach nothing";
    EXPECT_EQ(client.mapEpoch(), 2u);
    EXPECT_EQ(client.routedShard(moved_key), 1u)
        << "stale map rolled the routing back to the migration source";

    // An EQUAL epoch still teaches (independent deployments both sit at
    // their own epoch; count/address changes must merge) — the rule is
    // strictly-older-loses, not exact-match.
    ASSERT_TRUE(client.write(moved_key, "routed-right"));
    EXPECT_EQ(client.read(moved_key).value_or("?"), "routed-right");

    // The pipelined session client enforces the same rule.
    KvSessionClient session(deployment.portOf(0, 1));
    ASSERT_TRUE(session.connected());
    uint64_t tok = session.writeAsync(moved_key, "session-v", 10_s);
    auto first = session.wait(tok);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, net::ClientReplyMsg::Status::Ok);
    ASSERT_EQ(session.mapEpoch(), 2u);
    session.adoptAdvertisedMap(laggard);
    EXPECT_EQ(session.mapEpoch(), 2u) << "session client adopted a laggard";
    uint64_t tok2 = session.readAsync(moved_key, 10_s);
    auto second = session.wait(tok2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, net::ClientReplyMsg::Status::Ok);
    EXPECT_EQ(second->value, "session-v");
}

TEST(ElasticTcp, AddShardMigrateInRemoveShardRoundTrip)
{
    // Grow, rebalance, shrink: a new group joins owning nothing, a
    // migration hands it slots, clients follow; moving the slots away
    // again lets removeShard retire it. Every step bumps the epoch.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 112, 3 * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, tcpOptions(),
                                    config);
    deployment.start();

    KvClient client(deployment.portOf(0, 0));
    for (Key key = 1; key <= 48; ++key)
        ASSERT_TRUE(client.write(key, test::strCat("v", key)));

    uint32_t fresh_shard = deployment.addShard();
    EXPECT_EQ(fresh_shard, 2u);
    EXPECT_EQ(deployment.numShards(), 3u);
    EXPECT_EQ(deployment.slotMap().epoch, 2u);
    EXPECT_TRUE(deployment.slotMap().slotsOwnedBy(2).empty());

    std::vector<uint32_t> handed =
        slotsOwnedPrefix(deployment.slotMap(), 0, 128);
    ASSERT_EQ(deployment.migrateSlots(handed, 0, 2), handed.size());
    EXPECT_EQ(deployment.slotMap().epoch, 3u);

    Key moved_key = keyInSlots(handed);
    EXPECT_EQ(client.read(moved_key).value_or("?"),
              test::strCat("v", moved_key));
    ASSERT_TRUE(client.write(moved_key, "on-the-newcomer"));
    KvClient newcomer_local(deployment.portOf(2, 0));
    EXPECT_EQ(newcomer_local.read(moved_key).value_or("?"),
              "on-the-newcomer");

    // Hand the slots back; the emptied group retires.
    ASSERT_EQ(deployment.migrateSlots(handed, 2, 0), handed.size());
    EXPECT_TRUE(deployment.slotMap().slotsOwnedBy(2).empty());
    deployment.removeShard();
    EXPECT_EQ(deployment.numShards(), 2u);
    EXPECT_EQ(deployment.slotMap().epoch, 5u);

    // All data intact across the round trip, served by the survivors.
    KvClient after(deployment.portOf(1, 1));
    EXPECT_EQ(after.read(moved_key).value_or("?"), "on-the-newcomer");
    for (Key key = 1; key <= 48; ++key) {
        if (key == moved_key)
            continue;
        EXPECT_EQ(after.read(key).value_or("?"), test::strCat("v", key))
            << "key " << key;
    }
}

TEST(ElasticTcp, WalRestartStraddlingCutoverKeepsOwnershipStraight)
{
    // A source replica crash-restarted AFTER the cutover replays a WAL
    // holding records for keys whose slots moved away. The recovery
    // ownership filter (driven by the LIVE map, not the one the records
    // were logged under) must keep the restarted replica serving what
    // the shard still owns while the moved keys keep living — and
    // accepting writes — at the destination.
    test::TempDir dir("elastic-wal-cutover");
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 160, 6);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, options,
                                    config);
    deployment.start();

    std::vector<uint32_t> moving =
        slotsOwnedPrefix(deployment.slotMap(), 0, 128);
    Key moved_key = keyInSlots(moving);
    Key kept_key = keyOwnedOutsideSlots(deployment.slotMap(), 0, moving);

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.write(moved_key, "moved"));
    ASSERT_TRUE(client.write(kept_key, "kept"));

    ASSERT_EQ(deployment.migrateSlots(moving, 0, 1), moving.size());
    ASSERT_EQ(deployment.slotMap().epoch, 2u);

    // Crash-restart a SOURCE replica: its WAL straddles the cutover.
    deployment.restartReplica(0, 2);
    ASSERT_TRUE(awaitRejoin(deployment.shard(0), 2, 15_s))
        << "restarted source replica never left shadow mode";
    uint64_t recovered = 0;
    deployment.shard(0).cluster().runOn(2, [&] {
        recovered =
            deployment.shard(0).replica(2).wal()->stats().recordsRecovered;
    });
    EXPECT_GT(recovered, 0u);

    // The kept key survived recovery at the source; the moved key keeps
    // serving — and committing new writes — at the destination.
    KvClient after(deployment.portOf(0, 2));
    EXPECT_EQ(after.read(kept_key).value_or("?"), "kept");
    EXPECT_EQ(after.read(moved_key).value_or("?"), "moved");
    ASSERT_TRUE(after.write(moved_key, "moved-after-restart"));
    KvClient dest_local(deployment.portOf(1, 0));
    EXPECT_EQ(dest_local.read(moved_key).value_or("?"),
              "moved-after-restart");
    EXPECT_EQ(after.mapEpoch(), 2u);

    // The source group still commits through its restarted replica.
    ASSERT_TRUE(after.write(kept_key, "kept-after-restart"));
    EXPECT_EQ(after.read(kept_key).value_or("?"), "kept-after-restart");
}

TEST(ElasticTcp, AcceptanceHistorySpansLiveMigrationAndSourceCrash)
{
    // The acceptance bar over real sockets: S=4 x 3 replicas with
    // per-replica WALs, >= 10k mixed ops from 4 concurrent clients,
    // while a quarter of shard 0's slots migrate to shard 1 AND a
    // source replica is crash-restarted from its log mid-move. The
    // merged shard-tagged history must linearize, with zero failed ops.
    test::TempDir dir("elastic-acceptance");
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 192, kShards * 3);
    config.basePort = lane.base();
    constexpr int kClients = 4;
    constexpr int kOpsPerClient = 2700;
    constexpr Key kKeySpace = 48;
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3, options,
                                    config);
    deployment.start();

    std::vector<uint32_t> moving =
        slotsOwnedPrefix(deployment.slotMap(), 0, 64);
    std::set<uint32_t> moving_set(moving.begin(), moving.end());

    std::vector<app::History> histories(kClients);
    std::atomic<int> failures{0};
    // Load-robustness instrumentation: the move starts only after real
    // moved-slot traffic has landed at the source, and clients keep
    // issuing until moved-slot traffic has landed at the destination —
    // fixed sleeps starve under a loaded ctest -j and leave one side of
    // the span empty.
    std::atomic<size_t> pre_src{0};
    std::atomic<size_t> post_dest{0};
    std::atomic<bool> move_done{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&deployment, &histories, &failures,
                              &moving_set, &pre_src, &post_dest,
                              &move_done, c] {
            // Seeds avoid the crash target (shard 0, replica 2). Client
            // 0 starts stale (believes unsharded) on top of everything.
            KvClient client(deployment.portOf(c % kShards, c % 2));
            if (c == 0) {
                EXPECT_TRUE(client.adoptAdvertisedMap(test::staleMap(1)));
            }
            Rng rng(0xE1A5 + c);
            for (int i = 0;; ++i) {
                if (i >= kOpsPerClient
                    && move_done.load(std::memory_order_acquire)
                    && (post_dest.load() >= 30 || i >= 3 * kOpsPerClient))
                    break;
                app::HistOp op;
                op.key = 1 + rng.next() % kKeySpace;
                // Tag by the client's CURRENT route: a moved key's later
                // ops carry the destination tag, and History::byShard
                // buckets each key by its last tag — the whole cross-
                // move sub-history is checked in one piece.
                op.shard = client.routedShard(op.key);
                op.invoke = wallNowNs();
                double dice = rng.nextDouble();
                bool completed = false;
                if (dice < 0.5) {
                    op.kind = app::HistOp::Kind::Read;
                    auto got = client.read(op.key, 20_s);
                    completed = got.has_value();
                    if (completed)
                        op.result = *got;
                } else if (dice < 0.9) {
                    op.kind = app::HistOp::Kind::Write;
                    op.arg = test::strCat("c", c, "-", i);
                    completed = client.write(op.key, op.arg, 20_s);
                } else {
                    op.kind = app::HistOp::Kind::Cas;
                    op.arg = test::strCat("c", c, "-", i);
                    if (rng.nextBool(0.5))
                        op.expected = Value{};
                    else
                        op.expected = test::strCat("alien-", rng.next());
                    auto seen = client.casObserve(op.key, op.expected,
                                                 op.arg, 20_s);
                    completed = seen.has_value();
                    if (completed) {
                        op.casApplied = seen->first;
                        op.result = seen->second;
                    }
                }
                op.shard = client.routedShard(op.key); // post-teach tag
                op.response = wallNowNs();
                if (!completed) {
                    ++failures;
                    continue;
                }
                if (moving_set.count(app::slotOfKey(op.key))) {
                    if (op.shard == 0)
                        pre_src.fetch_add(1, std::memory_order_relaxed);
                    else if (op.shard == 1
                             && move_done.load(std::memory_order_acquire))
                        post_dest.fetch_add(1, std::memory_order_relaxed);
                }
                histories[c].add(std::move(op));
            }
        });
    }

    // Let traffic flow until real moved-slot ops have completed at the
    // source (a fixed sleep starves under a loaded ctest -j), then run
    // the live move — with a source-replica crash-restart landing in
    // the middle of the transfer (the restart thread races the
    // coordinator on purpose; the admin lock inside the service
    // serializes them).
    const auto pre_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pre_src.load() < 50
           && std::chrono::steady_clock::now() < pre_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(pre_src.load(), 50u)
        << "clients produced no pre-move moved-slot traffic";
    std::thread restarter([&deployment] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        deployment.restartReplica(0, 2);
    });
    size_t moved = deployment.migrateSlots(moving, 0, 1);
    restarter.join();
    move_done.store(true, std::memory_order_release);
    EXPECT_EQ(moved, moving.size());
    EXPECT_EQ(deployment.slotMap().epoch, 2u);
    ASSERT_TRUE(awaitRejoin(deployment.shard(0), 2, 15_s))
        << "restarted source replica never rejoined";

    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    app::History merged;
    for (const app::History &h : histories)
        for (const app::HistOp &op : h.ops())
            merged.add(op);
    ASSERT_GE(merged.size(), 10000u);

    // Traffic really spanned the move: moved-slot ops appear with the
    // destination tag (post-cutover) and the source tag (pre-move).
    size_t at_source = 0, at_dest = 0;
    for (const app::HistOp &op : merged.ops()) {
        if (!moving_set.count(app::slotOfKey(op.key)))
            continue;
        if (op.shard == 0)
            ++at_source;
        if (op.shard == 1)
            ++at_dest;
    }
    EXPECT_GT(at_source, 20u) << "no moved-slot traffic before the move";
    EXPECT_GT(at_dest, 20u) << "no moved-slot traffic after the move";

    app::LinReport report = app::checkShardedHistory(merged, 1u << 22,
                                                     app::LinMode::Jit);
    EXPECT_TRUE(report.ok()) << report.detail;
}

} // namespace
} // namespace hermes
