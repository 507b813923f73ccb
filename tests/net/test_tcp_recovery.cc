/**
 * @file
 * Robustness of the TCP deployment: crash-restart recovery of a live
 * replica from its per-replica WAL under concurrent sharded load (the
 * over-real-sockets half of the acceptance bar), graceful drain() that
 * flushes group-commit buffers and stops accepting sessions, and the
 * client reconnect path — jittered capped exponential dial backoff with
 * a bounded attempt budget against a held-down shard — and, with every
 * WAL writer held inside fsync, writes that wait for their records while
 * reads of Valid keys do not.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "app/cluster.hh"
#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "store/wal.hh"
#include "support/free_port.hh"
#include "support/fsync_hold.hh"
#include "support/str_cat.hh"
#include "support/temp_dir.hh"

namespace hermes
{
namespace
{

using app::KvClient;
using app::Protocol;
using app::ReplicaOptions;
using app::ShardedTcpDeployment;
using app::TcpKvService;

// Where this suite's PortLanes start probing, clear of the other TCP
// suites' starts: test_tcp 21000+, test_zero_copy 21320,
// test_tcp_recovery 22000+, test_sharded_tcp 23000+, test_sessions
// 24000+, test_elastic_tcp 25000+.
constexpr uint16_t kBasePort = 22000;

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

/** First key (from @p start) owned by @p shard under an S-way map. */
Key
keyOwnedBy(uint32_t shard, size_t shards, Key start = 1)
{
    for (Key k = start;; ++k) {
        if (app::shardOfKey(k, shards) == shard)
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

// ---------------------------------------------------------------------
// Acceptance: crash-restart under sharded load, over real sockets
// ---------------------------------------------------------------------

TEST(TcpRecovery, ShardedHistoryAcrossCrashRestartStaysLinearizable)
{
    // S=4 x 3 replicas over real sockets with per-replica WALs, mixed
    // load from 4 concurrent clients, one replica of shard 0 killed and
    // restarted from its log mid-run. The merged history — including
    // writes acknowledged before the crash — must pass the per-shard
    // linearizability check, and the restarted replica must end the run
    // fully operational (out of shadow, records recovered).
    test::TempDir dir("tcp-recovery");
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort, kShards * 3);
    config.basePort = lane.base();
    constexpr int kClients = 4;
    constexpr Key kKeySpace = 48;
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3, options,
                                    config);
    deployment.start();

    // Acknowledged pre-crash writes that recovery must preserve —
    // recorded as history ops so later reads of them linearize.
    KvClient setup(deployment.portOf(0, 0));
    ASSERT_TRUE(setup.connected());
    app::History setup_history;
    for (Key key = 1; key <= kKeySpace; ++key) {
        app::HistOp op;
        op.kind = app::HistOp::Kind::Write;
        op.key = key;
        op.shard = app::shardOfKey(key, kShards);
        op.arg = test::strCat("pre-", key);
        op.invoke = wallNowNs();
        ASSERT_TRUE(setup.write(key, op.arg));
        op.response = wallNowNs();
        setup_history.add(std::move(op));
    }

    std::vector<app::History> histories(kClients);
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&deployment, &histories, &failures, &stop,
                              c] {
            // Seeds avoid the crash target (shard 0, replica 2): a
            // session through a crashed seed would fail by design, and
            // this test is about the *data*, not client failover.
            KvClient client(deployment.portOf(c % 4, c % 2));
            Rng rng(0xFACE + c);
            int i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                app::HistOp op;
                op.key = 1 + rng.next() % kKeySpace;
                op.shard = app::shardOfKey(op.key, kShards);
                op.invoke = wallNowNs();
                bool completed = false;
                if (rng.nextBool(0.5)) {
                    op.kind = app::HistOp::Kind::Read;
                    auto got = client.read(op.key, 20_s);
                    completed = got.has_value();
                    if (completed)
                        op.result = *got;
                } else {
                    op.kind = app::HistOp::Kind::Write;
                    op.arg = test::strCat("c", c, "-", i);
                    completed = client.write(op.key, op.arg, 20_s);
                }
                op.response = wallNowNs();
                ++i;
                if (!completed) {
                    ++failures;
                    continue;
                }
                histories[c].add(std::move(op));
            }
        });
    }

    // Let traffic flow, then kill-and-recover shard 0's replica 2 while
    // the clients keep going.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    deployment.restartReplica(0, 2);
    ASSERT_TRUE(awaitRejoin(deployment.shard(0), 2, 15_s))
        << "restarted replica never left shadow mode";
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop.store(true);
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // The restarted replica really recovered from its own log.
    uint64_t recovered = 0;
    deployment.shard(0).cluster().runOn(2, [&] {
        recovered =
            deployment.shard(0).replica(2).wal()->stats().recordsRecovered;
    });
    EXPECT_GT(recovered, 0u);

    // The merged history (the pre-crash acknowledged setup writes
    // included) linearizes shard by shard.
    app::History merged;
    for (const app::HistOp &op : setup_history.ops())
        merged.add(op);
    for (const app::History &h : histories)
        for (const app::HistOp &op : h.ops())
            merged.add(op);
    std::set<uint32_t> shards_touched;
    for (const app::HistOp &op : merged.ops())
        shards_touched.insert(op.shard);
    EXPECT_EQ(shards_touched.size(), kShards);
    app::LinReport report = app::checkShardedHistory(merged);
    EXPECT_TRUE(report.ok())
        << "shard " << app::shardOfKey(report.offendingKey, kShards)
        << ": " << report.detail;

    // Writes commit through the full group again (the restarted
    // replica's ACK is required once re-admitted), and a client seeded
    // at the restarted replica serves pre-crash acknowledged data.
    KvClient direct(deployment.portOf(0, 2));
    ASSERT_TRUE(direct.connected());
    Key k0 = keyOwnedBy(0, kShards, kKeySpace + 1);
    ASSERT_TRUE(direct.write(k0, "post-recovery"));
    EXPECT_EQ(direct.read(k0).value_or("?"), "post-recovery");
}

TEST(TcpRecovery, RestartedReplicaKeepsServingAfterSecondRestart)
{
    // The rejoin must be repeatable: crash-restart the same replica
    // twice (the second time it replays records the first recovery
    // re-logged) and the group still commits through it.
    test::TempDir dir("tcp-recovery-twice");
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 16, 3);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    TcpKvService service(Protocol::Hermes, 3, options, config);
    service.start();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.write(1, "one"));
    service.restartReplica(2);
    ASSERT_TRUE(awaitRejoin(service, 2, 15_s));
    ASSERT_TRUE(client.write(2, "two"));

    service.restartReplica(2);
    ASSERT_TRUE(awaitRejoin(service, 2, 15_s));
    uint64_t recovered = 0;
    service.cluster().runOn(2, [&] {
        recovered = service.replica(2).wal()->stats().recordsRecovered;
    });
    EXPECT_GT(recovered, 0u);
    EXPECT_EQ(client.read(1).value_or("?"), "one");
    EXPECT_EQ(client.read(2).value_or("?"), "two");
    ASSERT_TRUE(client.write(3, "three"));
    EXPECT_EQ(client.read(3).value_or("?"), "three");
}

TEST(TcpRecovery, RestartFirstReplicaOfSecondShard)
{
    // Restarting replica 0 of shard 1 under load: the restarted node is
    // the group's lowest id, so the state-transfer source (the lowest-id
    // live survivor) is replica 1, not replica 0 as in every restart of
    // a higher replica. Acknowledged pre-crash writes must be served by
    // the rebuilt replica after its sync, and the history must
    // linearize shard by shard.
    test::TempDir dir("tcp-recovery-first");
    net::TcpConfig config;
    const size_t kShards = 2;
    test::PortLane lane(kBasePort + 64, kShards * 3);
    config.basePort = lane.base();
    constexpr int kClients = 4;
    constexpr Key kKeySpace = 48;
    constexpr Key kPreBase = 1000; // pre-crash keys, untouched by the load
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3, options,
                                    config);
    deployment.start();
    TcpKvService &group = deployment.shard(1);

    KvClient setup(deployment.portOf(0, 1));
    ASSERT_TRUE(setup.connected());
    app::History merged;
    for (Key key = kPreBase + 1; key <= kPreBase + kKeySpace; ++key) {
        app::HistOp op;
        op.kind = app::HistOp::Kind::Write;
        op.key = key;
        op.shard = app::shardOfKey(key, kShards);
        op.arg = test::strCat("pre-", key);
        op.invoke = wallNowNs();
        ASSERT_TRUE(setup.write(key, op.arg));
        op.response = wallNowNs();
        merged.add(std::move(op));
    }

    std::vector<app::History> histories(kClients);
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&deployment, &histories, &failures, &stop,
                              c] {
            // Seeds (and so homes) at replicas 1 and 2 of either shard:
            // never the crash target.
            KvClient client(deployment.portOf(c % 2, 1 + c / 2));
            Rng rng(0xF125 + c);
            for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
                app::HistOp op;
                op.key = 1 + rng.next() % kKeySpace;
                op.shard = app::shardOfKey(op.key, kShards);
                op.invoke = wallNowNs();
                bool completed = false;
                if (rng.nextBool(0.5)) {
                    op.kind = app::HistOp::Kind::Read;
                    auto got = client.read(op.key, 20_s);
                    completed = got.has_value();
                    if (completed)
                        op.result = *got;
                } else {
                    op.kind = app::HistOp::Kind::Write;
                    op.arg = test::strCat("c", c, "-", i);
                    completed = client.write(op.key, op.arg, 20_s);
                }
                op.response = wallNowNs();
                if (!completed) {
                    ++failures;
                    continue;
                }
                histories[c].add(std::move(op));
            }
        });
    }

    Epoch before = 0;
    group.cluster().runOn(1, [&] {
        before = group.replica(1).hermes()->view().epoch;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    deployment.restartReplica(1, 0);
    ASSERT_TRUE(awaitRejoin(group, 0, 15_s))
        << "restarted replica never left shadow mode";
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // The whole group moved through the shrink (epoch+1) and the
    // re-admission (epoch+2), and ends with all three members.
    for (NodeId r = 0; r < 3; ++r) {
        group.cluster().runOn(r, [&] {
            const membership::MembershipView &view =
                group.replica(r).hermes()->view();
            EXPECT_EQ(view.epoch, before + 2) << "replica " << r;
            EXPECT_EQ(view.live.size(), 3u) << "replica " << r;
        });
    }

    // Pre-crash acknowledged writes, read at the rebuilt replica itself:
    // a session seeded there is homed there for shard 1.
    app::KvSessionClient direct(deployment.portOf(1, 0));
    direct.awaitHello();
    for (Key key = kPreBase + 1; key <= kPreBase + kKeySpace; ++key) {
        if (app::shardOfKey(key, kShards) != 1)
            continue;
        auto got = direct.wait(direct.readAsync(key));
        ASSERT_TRUE(got && got->completed) << "key " << key;
        EXPECT_EQ(got->value, test::strCat("pre-", key));
        EXPECT_EQ(direct.servingPort(1), deployment.portOf(1, 0));
    }

    for (const app::History &h : histories)
        for (const app::HistOp &op : h.ops())
            merged.add(op);
    app::LinReport report = app::checkShardedHistory(merged);
    EXPECT_TRUE(report.ok())
        << "shard " << app::shardOfKey(report.offendingKey, kShards)
        << ": " << report.detail;
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

TEST(TcpRecovery, DrainFlushesWalAndStopsAccepting)
{
    // drain(): stop accepting sessions, push the WAL group-commit
    // buffers through one final flush, join the loop threads. Every
    // acknowledged write must be on disk afterwards — in EVERY
    // replica's own log — and new dials must be refused fast.
    test::TempDir dir("tcp-drain");
    net::TcpConfig config;
    const size_t kShards = 2;
    test::PortLane lane(kBasePort + 32, kShards * 3);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path(); // fsync policy: Group (the default)
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3, options,
                                    config);
    deployment.start();

    KvClient client(deployment.portOf(0, 0));
    constexpr Key kKeys = 40;
    for (Key key = 1; key <= kKeys; ++key) {
        ASSERT_TRUE(
            client.write(key, test::strCat("durable-", key)));
    }

    deployment.drain();

    // No new sessions: a bounded dial against a drained port fails fast
    // instead of connecting into a dead loop.
    TimeNs start = wallNowNs();
    net::TcpClient refused(deployment.portOf(1, 1), /*connect_attempts=*/2);
    EXPECT_FALSE(refused.connected());
    EXPECT_LT(wallNowNs() - start, 2_s);

    // Every acknowledged write reached every owning replica's log: the
    // final flush pushed the group-commit buffers before the sockets
    // closed (no records were waiting on the next poll boundary).
    for (uint32_t s = 0; s < kShards; ++s) {
        for (size_t r = 0; r < 3; ++r) {
            std::string path = dir.path() + "/shard" + std::to_string(s)
                               + "/replica" + std::to_string(r) + ".wal";
            std::set<Key> logged;
            store::Wal::scan(path,
                             [&logged](const store::WalRecordView &record) {
                                 logged.insert(record.key);
                             });
            for (Key key = 1; key <= kKeys; ++key) {
                if (app::shardOfKey(key, kShards) != s)
                    continue;
                EXPECT_TRUE(logged.count(key))
                    << "key " << key << " missing from shard " << s
                    << " replica " << r << "'s log";
            }
        }
    }
}

// ---------------------------------------------------------------------
// Writes wait for every log, reads for none
// ---------------------------------------------------------------------

struct HeldFsyncOutcome
{
    bool writeAnsweredWhileHeld = false;
    int readsAnswered = 0;
    int readsTried = 0;
    bool writeAnsweredAfter = false;
};

/**
 * One group with WALs; keys 1..4 written first. Then every replica's
 * writer is held inside fsync while one session writes key 100 and
 * another reads keys 1..4 from each replica; then the writers go on.
 * With @p plant, TcpCluster::releaseFramesEarly is on throughout.
 */
HeldFsyncOutcome
writeWhileFsyncHeld(uint16_t lane_start, bool plant)
{
    test::TempDir dir("tcp-held-fsync");
    net::TcpConfig config;
    test::PortLane lane(lane_start, 3);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    TcpKvService service(Protocol::Hermes, 3, options, config);
    net::TcpCluster::releaseFramesEarly(plant);
    service.start();

    HeldFsyncOutcome out;
    KvClient setup(service.portOf(0));
    for (Key key = 1; key <= 4; ++key)
        EXPECT_TRUE(setup.write(key, "before"));
    std::vector<std::unique_ptr<KvClient>> readers;
    for (NodeId n = 0; n < 3; ++n)
        readers.push_back(std::make_unique<KvClient>(service.portOf(n)));
    app::KvSessionClient writer(service.portOf(0));
    writer.awaitHello();
    // Let the last VALs land: every replica holds keys 1..4 Valid.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        test::FsyncHold hold;
        uint64_t token = writer.writeAsync(100, "held", 10_s);
        TimeNs until = wallNowNs() + 400_ms;
        while (wallNowNs() < until) {
            for (auto &reader : readers) {
                for (Key key = 1; key <= 4; ++key) {
                    ++out.readsTried;
                    if (reader->read(key, 1_s).value_or("?") == "before")
                        ++out.readsAnswered;
                }
            }
            out.writeAnsweredWhileHeld |= writer.done(token);
        }
        hold.release();
        auto result = writer.wait(token);
        out.writeAnsweredAfter = result && result->completed;
    }
    net::TcpCluster::releaseFramesEarly(false);
    return out;
}

TEST(TcpWalDurability, HeldFsyncHoldsTheWriteButNotReadsOfValidKeys)
{
    // A write is acknowledged only after its records are durable at the
    // coordinator and at every follower, while a read of a Valid key
    // waits for no log at all: hold every replica's WAL writer inside
    // its fsync, and the new write must go unanswered while reads of
    // keys written earlier keep answering from every replica.
    HeldFsyncOutcome out = writeWhileFsyncHeld(kBasePort + 80, false);
    EXPECT_FALSE(out.writeAnsweredWhileHeld)
        << "a write was acknowledged before its records were durable";
    EXPECT_GT(out.readsTried, 0);
    EXPECT_EQ(out.readsAnswered, out.readsTried)
        << "a read of a Valid key waited for the log";
    EXPECT_TRUE(out.writeAnsweredAfter);
}

TEST(TcpWalDurability, PlantedEarlyReleaseIsCaught)
{
    // The same scenario with the planted bug: frames and the
    // coordinator's own ACK are released at append, not at fsync. The
    // held write's reply then arrives, which is exactly what the test
    // above asserts never happens.
    HeldFsyncOutcome out = writeWhileFsyncHeld(kBasePort + 96, true);
    EXPECT_TRUE(out.writeAnsweredWhileHeld)
        << "the durability test no longer notices an early release";
}

TEST(TcpWalDurability, AckBroadcastFollowerReadsNoValueHeldInALog)
{
    // O3 lets a follower validate on a complete ACK set that counts its
    // own ACK at append and takes the INV for the coordinator's; in a
    // 2-replica group the INV alone completes it. A read there must
    // still not return a value that no replica has made durable: with
    // every writer held inside fsync, the follower keeps answering the
    // value written before the hold.
    test::TempDir dir("tcp-o3-held-fsync");
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 112, 2);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    options.hermesConfig.ackBroadcast = true;
    TcpKvService service(Protocol::Hermes, 2, options, config);
    service.start();

    constexpr Key kKey = 7;
    KvClient setup(service.portOf(0));
    ASSERT_TRUE(setup.write(kKey, "before"));
    KvClient reader(service.portOf(1));
    app::KvSessionClient writer(service.portOf(0));
    writer.awaitHello();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    int before = 0;
    int held = 0;
    {
        test::FsyncHold hold;
        uint64_t token = writer.writeAsync(kKey, "held", 10_s);
        TimeNs until = wallNowNs() + 300_ms;
        while (wallNowNs() < until) {
            std::string value = reader.read(kKey, 1_s).value_or("?");
            before += value == "before";
            held += value == "held";
        }
        hold.release();
        auto result = writer.wait(token);
        EXPECT_TRUE(result && result->completed);
    }
    EXPECT_EQ(held, 0) << "a follower served a value durable nowhere";
    EXPECT_GT(before, 0);
}

// ---------------------------------------------------------------------
// Reconnect backoff
// ---------------------------------------------------------------------

TEST(TcpRecovery, DialBackoffDelaysGrowAndStayCapped)
{
    net::DialBackoff backoff(/*seed=*/42);
    uint32_t base = net::DialBackoff::kBaseMs;
    uint64_t total = 0;
    for (int i = 0; i < 12; ++i) {
        uint32_t delay = backoff.nextDelayMs();
        EXPECT_GE(delay, base) << "attempt " << i;
        EXPECT_LT(delay, 2 * base) << "attempt " << i;
        total += delay;
        base = std::min(base * 2, net::DialBackoff::kCapMs);
    }
    // Capped: 12 paced attempts stay within a few seconds in total.
    EXPECT_LT(total, 4000u);
}

TEST(TcpRecovery, ReconnectBoundsDialAttemptsUnderHeldDownShard)
{
    // Regression for the immediate-redial reconnect: a client whose
    // shard is held down (drained — its listeners actually refuse) must
    // fail its ops within the op budget after a BOUNDED number of dial
    // attempts, paced by the backoff, and keep serving other shards.
    net::TcpConfig config;
    const size_t kShards = 2;
    test::PortLane lane(kBasePort + 48, kShards * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.connected());
    for (uint32_t s = 0; s < kShards; ++s)
        ASSERT_TRUE(client.write(keyOwnedBy(s, kShards), "up"));

    deployment.shard(1).drain(); // held down: dials now refused

    // First op after the drain discovers the cached connection is dead
    // (no dialing involved); every op after that must REDIAL — that is
    // the path the backoff paces and bounds.
    Key dead_key = keyOwnedBy(1, kShards);
    EXPECT_FALSE(client.write(dead_key, "down", 500_ms));

    net::DialBackoff::resetDialAttempts();
    TimeNs start = wallNowNs();
    EXPECT_FALSE(client.write(dead_key, "still-down", 500_ms));
    TimeNs elapsed = wallNowNs() - start;
    uint64_t attempts = net::DialBackoff::dialAttempts();

    // One reroute round: at most 3 paced attempts against each of the
    // shard's 3 advertised replicas, then the seed's WrongShard answer
    // ends the op — no unbounded redial loop, no blown budget.
    EXPECT_GT(attempts, 0u);
    EXPECT_LE(attempts, 12u);
    EXPECT_LT(elapsed, 2_s)
        << "a 500 ms op burned " << elapsed / 1000000 << " ms dialing";

    // The held-down shard didn't wedge the live one.
    EXPECT_EQ(client.read(keyOwnedBy(0, kShards)).value_or("?"), "up");
}

} // namespace
} // namespace hermes
