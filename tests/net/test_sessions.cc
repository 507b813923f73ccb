/**
 * @file
 * The massive-client session layer end-to-end: pipelined KvSessionClient
 * sessions (per-session sequence numbers, completion by reqId, reroute
 * per in-flight op) against the epoll-multiplexed replicas, per-session
 * credit windows negotiated at HELLO and ENFORCED server-side (an
 * over-limit session's socket stops being read until replies drain),
 * the poll-boundary peer-credit flush, the reroute loop's dead ends
 * (a drained shard, a key no advertised address owns), home-replica
 * routing (sessions spread reads and writes over every replica, fail
 * over when home dies and return once it serves again), and a
 * 1000-session deployment-wide run — mixed ops, one shard crashed
 * mid-run — whose shard-tagged history passes the linearizability
 * checker.
 */

#include <gtest/gtest.h>

#include <poll.h>

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "app/cluster.hh"
#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "support/free_port.hh"
#include "support/str_cat.hh"
#include "support/temp_dir.hh"

namespace hermes
{
namespace
{

using app::KvClient;
using app::KvSessionClient;
using app::Protocol;
using app::ReplicaOptions;
using app::ShardedTcpDeployment;
using app::TcpKvService;

// Where this suite's PortLanes start probing, clear of the other TCP
// suites' starts: test_tcp 21000+, test_zero_copy 21320,
// test_tcp_recovery 22000+, test_sharded_tcp 23000+, test_sessions
// 24000+, test_elastic_tcp 25000+.
constexpr uint16_t kBasePort = 24000;

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

TEST(Sessions, PipelinedOpsCompleteByToken)
{
    net::TcpConfig config;
    test::PortLane lane(kBasePort, 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvSessionClient session(service.portOf(0));
    ASSERT_TRUE(session.connected());

    // A burst of writes issued before anything is waited on: the whole
    // point of a session is that these ride the socket together.
    constexpr int kOps = 100;
    std::vector<uint64_t> writes;
    for (int i = 0; i < kOps; ++i)
        writes.push_back(
            session.writeAsync(1 + i % 10, test::strCat("w", i)));
    EXPECT_EQ(session.inflight(), static_cast<size_t>(kOps));
    for (uint64_t token : writes) {
        auto result = session.wait(token);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed);
        EXPECT_EQ(result->status, net::ClientReplyMsg::Status::Ok);
    }

    // Reads pipelined the same way complete by token, out of one reply
    // stream, each with the right value (keys 1..10 last written by
    // ops 90..99).
    std::vector<uint64_t> reads;
    for (int i = 0; i < 10; ++i)
        reads.push_back(session.readAsync(1 + i));
    for (int i = 0; i < 10; ++i) {
        auto result = session.wait(reads[i]);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed);
        EXPECT_EQ(result->value, test::strCat("w", 90 + i));
    }

    // CAS through the session: a winning and a losing one, the loser
    // reporting the value it observed.
    uint64_t win = session.casAsync(1, "w90", "cas-won");
    uint64_t lose = session.casAsync(2, "never-this", "cas-lost");
    auto won = session.wait(win);
    ASSERT_TRUE(won.has_value() && won->completed);
    EXPECT_TRUE(won->casApplied);
    auto lost = session.wait(lose);
    ASSERT_TRUE(lost.has_value() && lost->completed);
    EXPECT_FALSE(lost->casApplied);
    EXPECT_EQ(lost->value, "w91");

    // The HELLO negotiation answered with the server's default window.
    EXPECT_EQ(session.grantedCredits(),
              net::TcpConfig{}.clientSessionCredits);
    EXPECT_EQ(session.inflight(), 0u);
}

TEST(Sessions, ServerStopsReadingOverLimitSession)
{
    // Credit enforcement is the SERVER's: grant a tiny window (8), then
    // have a deliberately misbehaving client believe a huge one and
    // flood 500 writes. The server must pause the session's socket at
    // the limit — the in-flight high-water mark stays at the window,
    // the overflow waits in kernel buffers — and resume as replies
    // drain until every op completed.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 32, 3);
    config.basePort = lane.base();
    config.clientSessionCredits = 8;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    KvSessionClient flood(service.portOf(0));
    ASSERT_TRUE(flood.connected());
    flood.overrideWindow(100000);

    constexpr int kOps = 500;
    for (int i = 0; i < kOps; ++i)
        flood.writeAsync(1 + i % 16, test::strCat("f", i), 60_s);
    EXPECT_EQ(flood.waitAll(), static_cast<size_t>(kOps))
        << "a paused session must resume once replies drain";

    EXPECT_GT(net::TcpCluster::sessionPauses(), 0u)
        << "the flood never tripped the window";
    EXPECT_LE(net::TcpCluster::maxSessionInflight(), 8u)
        << "the server admitted more in-flight requests than the "
           "granted window";

    KvClient check(service.portOf(2));
    EXPECT_EQ(check.read(1 + (kOps - 16) % 16).value_or("?"),
              test::strCat("f", kOps - 16));
}

TEST(Sessions, CreditReturnsFlushOnQuietLinks)
{
    // Regression for the credit-return starvation fix: with a 2-credit
    // peer window and a return batch (1000) that low-rate traffic never
    // reaches, the old code returned credits only on bursts — after two
    // messages a link was starved for good. The poll-boundary flush
    // must keep sequential writes (one replication round at a time)
    // flowing indefinitely.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 48, 3);
    config.basePort = lane.base();
    config.creditsPerLink = 2;
    config.creditReturnBatch = 1000;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(client.write(1 + i % 5, test::strCat("q", i), 5_s))
            << "write " << i << " starved: credits never came back";
    }
    EXPECT_EQ(client.read(1).value_or("?"), "q15");
    EXPECT_GT(net::TcpCluster::creditReturnsFlushed(), 0u)
        << "quiet links returned credits some other way than the "
           "poll-boundary flush this test pins down";
}

/** First key (from 1) owned by @p shard under an S-way map. */
Key
keyOwnedBy(uint32_t shard, size_t shards)
{
    for (Key k = 1;; ++k) {
        if (app::shardOfKey(k, shards) == shard)
            return k;
    }
}

TEST(Sessions, HeldDownShardEndsWrongShardAfterOneDialRound)
{
    // A drained shard refuses every dial. One op toward it must try each
    // advertised replica once (a few paced attempts apiece), fall back
    // to the seed, and end WrongShard on the seed's rejection — the
    // reply teaches nothing new, so re-dialing the same dead addresses
    // for the rest of the attempt budget cannot converge.
    net::TcpConfig config;
    const size_t kShards = 2;
    test::PortLane lane(kBasePort + 80, kShards * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    KvSessionClient session(deployment.portOf(0, 0));
    ASSERT_TRUE(session.connected());
    session.awaitHello();
    for (uint32_t s = 0; s < kShards; ++s) {
        auto up = session.wait(session.writeAsync(keyOwnedBy(s, kShards),
                                                  "up"));
        ASSERT_TRUE(up && up->completed);
    }

    deployment.shard(1).drain();

    // The first op finds the cached socket dead; the next must redial.
    Key dead_key = keyOwnedBy(1, kShards);
    session.wait(session.writeAsync(dead_key, "down", 500_ms));

    net::DialBackoff::resetDialAttempts();
    TimeNs start = wallNowNs();
    auto result = session.wait(session.writeAsync(dead_key, "still-down",
                                                  500_ms));
    TimeNs elapsed = wallNowNs() - start;
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, net::ClientReplyMsg::Status::WrongShard);
    EXPECT_GT(net::DialBackoff::dialAttempts(), 0u);
    EXPECT_LE(net::DialBackoff::dialAttempts(), 12u);
    EXPECT_LT(elapsed, 2_s);

    auto live = session.wait(session.readAsync(keyOwnedBy(0, kShards)));
    ASSERT_TRUE(live && live->completed);
    EXPECT_EQ(live->value, "up");
}

TEST(Sessions, ForeignKeyOnStandaloneGroupEndsWrongShard)
{
    // A standalone group of a 4-shard deployment advertises only its own
    // address: a key owned by another shard has nowhere to go, so the op
    // completes WrongShard at once rather than burning its attempts.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 96, 3);
    config.basePort = lane.base();
    const size_t kShards = 4;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/0);
    service.start();

    KvSessionClient session(service.portOf(0));
    ASSERT_TRUE(session.connected());
    auto foreign = session.wait(session.writeAsync(keyOwnedBy(1, kShards),
                                                   "lost"));
    ASSERT_TRUE(foreign.has_value());
    EXPECT_TRUE(foreign->completed);
    EXPECT_EQ(foreign->status, net::ClientReplyMsg::Status::WrongShard);

    auto owned = session.wait(session.writeAsync(keyOwnedBy(0, kShards),
                                                 "home"));
    ASSERT_TRUE(owned.has_value());
    EXPECT_EQ(owned->status, net::ClientReplyMsg::Status::Ok);
}

/** Replica @p id 's Hermes counters, read on its loop. */
proto::HermesStats
statsOf(TcpKvService &group, NodeId id)
{
    proto::HermesStats stats;
    group.cluster().runOn(
        id, [&] { stats = group.replica(id).hermes()->stats(); });
    return stats;
}

TEST(Sessions, ReadsAndWritesSpreadOverHomeReplicas)
{
    // The paper's symmetry (§3): any replica serves a read locally and
    // coordinates a write. Sessions seeded at replicas 0, 1 and 2 home
    // there, so every replica serves reads and issues writes, and none
    // carries the bulk of the reads.
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 112, 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 1, 3, tcpOptions(),
                                    config);
    deployment.start();

    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    for (NodeId seed = 0; seed < 3; ++seed) {
        sessions.push_back(std::make_unique<KvSessionClient>(
            deployment.portOf(0, seed)));
        ASSERT_TRUE(sessions.back()->connected());
    }
    constexpr int kRounds = 40;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<KvSessionClient *, uint64_t>> tokens;
        for (size_t s = 0; s < sessions.size(); ++s) {
            Key key = 1 + (round * 3 + s) % 64;
            tokens.emplace_back(sessions[s].get(),
                                sessions[s]->writeAsync(
                                    key, test::strCat("s", s, "-", round)));
            for (int r = 0; r < 4; ++r)
                tokens.emplace_back(sessions[s].get(),
                                    sessions[s]->readAsync(key + r));
        }
        for (auto &[session, token] : tokens) {
            auto result = session->wait(token);
            ASSERT_TRUE(result && result->completed);
            ASSERT_EQ(result->status, net::ClientReplyMsg::Status::Ok);
        }
    }
    for (NodeId seed = 0; seed < 3; ++seed)
        EXPECT_EQ(sessions[seed]->servingPort(0), deployment.portOf(0, seed))
            << "session seeded at replica " << seed << " is not home";

    uint64_t reads = 0;
    std::vector<proto::HermesStats> stats;
    for (NodeId r = 0; r < 3; ++r) {
        stats.push_back(statsOf(deployment.shard(0), r));
        reads += stats.back().readsCompleted;
    }
    ASSERT_GT(reads, 0u);
    for (NodeId r = 0; r < 3; ++r) {
        EXPECT_GT(stats[r].readsCompleted, 0u) << "replica " << r;
        EXPECT_GT(stats[r].writesIssued, 0u) << "replica " << r;
        EXPECT_LE(static_cast<double>(stats[r].readsCompleted) / reads, 0.45)
            << "replica " << r << " served "
            << stats[r].readsCompleted << " of " << reads << " reads";
    }
}

TEST(Sessions, HomeFailsOverAndReturnsAfterRestart)
{
    // A session homed at replica 2 keeps a stream going while replica 2
    // dies and is crash-restarted from its WAL: while it is down (its
    // listener still bound, so a dial connects but nothing answers) and
    // while it is a §3.4 shadow, ops are served by a survivor; once it
    // serves again the session returns home. Every op completes Ok and
    // the history linearizes.
    test::TempDir dir("session-failover");
    net::TcpConfig config;
    test::PortLane lane(kBasePort + 128, 3);
    config.basePort = lane.base();
    ReplicaOptions options = tcpOptions();
    options.wal.path = dir.path();
    ShardedTcpDeployment deployment(Protocol::Hermes, 1, 3, options,
                                    config);
    deployment.start();
    TcpKvService &group = deployment.shard(0);
    const uint16_t home = deployment.portOf(0, 2);

    KvSessionClient session(home);
    ASSERT_TRUE(session.connected());
    app::History history;
    int seq = 0;
    auto op = [&](bool write) {
        app::HistOp rec;
        rec.kind = write ? app::HistOp::Kind::Write : app::HistOp::Kind::Read;
        rec.key = 1 + seq % 8;
        rec.invoke = wallNowNs();
        uint64_t token;
        if (write) {
            rec.arg = test::strCat("v", seq);
            token = session.writeAsync(rec.key, rec.arg);
        } else {
            token = session.readAsync(rec.key);
        }
        ++seq;
        auto result = session.wait(token);
        rec.response = wallNowNs();
        ASSERT_TRUE(result && result->completed) << "op " << seq;
        ASSERT_EQ(result->status, net::ClientReplyMsg::Status::Ok);
        rec.result = write ? Value{} : result->value;
        history.add(std::move(rec));
    };

    for (int i = 0; i < 32; ++i)
        op(i % 2 == 0);
    EXPECT_EQ(session.servingPort(0), home);

    // Home down: its socket closes under the session. Reads fail over
    // (a write would wait for the view change below to commit).
    group.crash(2);
    session.progress(); // observe the close: nothing is in flight
    for (int i = 0; i < 16; ++i) {
        op(false);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_NE(session.servingPort(0), home) << "no failover while home is down";
    EXPECT_NE(session.servingPort(0), 0);

    // Rebuild replica 2 from its WAL; it rejoins as a shadow and syncs.
    deployment.restartReplica(0, 2);
    while (group.replicaIsShadow(2)) {
        op(true);
        op(false);
    }

    // Home serves again: the session's pending probe is answered and it
    // goes back, so new reads count at replica 2.
    TimeNs deadline = wallNowNs() + 5_s;
    while (session.servingPort(0) != home && wallNowNs() < deadline) {
        op(true);
        op(false);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(session.servingPort(0), home) << "session never returned home";
    uint64_t before = statsOf(group, 2).readsCompleted;
    for (int i = 0; i < 20; ++i)
        op(false);
    EXPECT_GE(statsOf(group, 2).readsCompleted, before + 20);
    EXPECT_TRUE(session.connected());

    app::LinReport report = app::checkHistory(history);
    EXPECT_TRUE(report.ok()) << report.detail;
}

TEST(Sessions, ThousandSessionsSurviveCrashLinChecked)
{
    // The tentpole at scale: 1000 pipelined sessions multiplexed onto a
    // 4-shard x 3-replica deployment (every session holds a socket to
    // every shard — thousands of connections per replica loop), mixed
    // reads/writes/CAS, then one shard crashed with ops still flowing.
    // Ops on dead sockets fail fast and are dropped from the history;
    // everything recorded must linearize shard by shard.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 64, kShards * 3);
    config.basePort = lane.base();
    constexpr int kSessions = 1000;
    constexpr int kPhase1Rounds = 12;
    // Wide enough that per-key concurrency stays around 2: the checker
    // is exponential in simultaneous overlap, and 1000 sessions on a
    // handful of keys is a state-budget bomb, not a better test. The
    // high-contention lin check lives in test_sharded_tcp with 4
    // clients; this one proves the SESSION layer keeps histories
    // straight at scale.
    constexpr Key kKeySpace = 512;
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    for (int c = 0; c < kSessions; ++c) {
        // Seed at replica 0 of a rotating shard: connFor() then reuses
        // the seed socket for that shard, so each session runs exactly
        // one socket per shard.
        sessions.push_back(std::make_unique<KvSessionClient>(
            deployment.portOf(c % kShards, 0)));
        ASSERT_TRUE(sessions.back()->connected());
    }

    struct Tracked
    {
        uint64_t token;
        app::HistOp op;
    };
    std::vector<std::deque<Tracked>> outstanding(kSessions);
    app::History merged;
    size_t failures = 0;

    // 5_s per-op deadline: generous for live shards on a loaded box, and
    // it bounds the drain after the crash — a stopped shard's sockets
    // stay open (no RST), so ops sent its way resolve only by expiry.
    auto issueOne = [&](int c, Key key, Rng &rng) {
        KvSessionClient &s = *sessions[c];
        app::HistOp op;
        op.key = key;
        op.shard = app::shardOfKey(key, kShards);
        op.invoke = wallNowNs();
        double dice = rng.nextDouble();
        uint64_t token;
        if (dice < 0.5) {
            op.kind = app::HistOp::Kind::Read;
            token = s.readAsync(key, 5_s);
        } else if (dice < 0.9) {
            op.kind = app::HistOp::Kind::Write;
            op.arg = test::strCat("s", c, "-", rng.next());
            token = s.writeAsync(key, op.arg, 5_s);
        } else {
            op.kind = app::HistOp::Kind::Cas;
            op.arg = test::strCat("s", c, "-", rng.next());
            if (rng.nextBool(0.5))
                op.expected = Value{};
            else
                op.expected = test::strCat("alien-", rng.next());
            token = s.casAsync(key, op.expected, op.arg, 5_s);
        }
        outstanding[c].push_back(Tracked{token, std::move(op)});
    };

    auto harvest = [&]() {
        size_t left = 0;
        for (int c = 0; c < kSessions; ++c) {
            sessions[c]->progress();
            auto &queue = outstanding[c];
            for (auto it = queue.begin(); it != queue.end();) {
                auto result = sessions[c]->take(it->token);
                if (!result) {
                    ++it;
                    continue;
                }
                app::HistOp op = std::move(it->op);
                op.response = wallNowNs();
                if (result->completed
                        && result->status
                               == net::ClientReplyMsg::Status::Ok) {
                    if (op.kind == app::HistOp::Kind::Read)
                        op.result = result->value;
                    if (op.kind == app::HistOp::Kind::Cas) {
                        op.casApplied = result->casApplied;
                        op.result = result->value;
                    }
                    merged.add(std::move(op));
                } else {
                    ++failures;
                }
                it = queue.erase(it);
            }
            left += queue.size();
        }
        return left;
    };

    // Block on every live session socket between harvest passes: this
    // box may be a single core, and a spinning driver starves the 12
    // replica loops of the very CPU that completes the ops. poll()
    // wakes the driver exactly when replies exist, and one harvest
    // pass drains everything that arrived.
    auto blockOnSessions = [&]() {
        std::vector<pollfd> pfds;
        for (const auto &session : sessions)
            for (int fd : session->fds())
                pfds.push_back(pollfd{fd, POLLIN, 0});
        if (!pfds.empty())
            poll(pfds.data(), pfds.size(), 20);
    };
    auto drain = [&]() {
        while (harvest() > 0)
            blockOnSessions();
    };

    // Phase 1: the healthy deployment under full pipelined load.
    std::vector<Rng> rngs;
    for (int c = 0; c < kSessions; ++c)
        rngs.emplace_back(0xC0FFEE + c);
    for (int round = 0; round < kPhase1Rounds; ++round) {
        for (int c = 0; c < kSessions; ++c)
            issueOne(c, 1 + rngs[c].next() % kKeySpace, rngs[c]);
        harvest();
    }
    drain();
    EXPECT_EQ(failures, 0u) << "no op may fail while all shards live";

    // Phase 2: kill a whole shard, then every session issues one op per
    // shard — dead-shard ops fail (fast, via the closed socket), live
    // shards keep serving every session. Keys come UNIFORMLY from each
    // shard's pool (a "first owned key >= random start" scan would pile
    // the mass of every gap onto the key ending it — tens of mutually
    // concurrent ops on one register is a checker state bomb, not a
    // better history), and issuing is chunked with harvests in between
    // so completion windows stay narrow.
    std::vector<std::vector<Key>> keysOf(kShards);
    for (Key k = 1; k <= kKeySpace; ++k)
        keysOf[app::shardOfKey(k, kShards)].push_back(k);
    const uint32_t kDead = 3;
    deployment.crashShard(kDead);
    for (int c = 0; c < kSessions; ++c) {
        for (uint32_t s = 0; s < kShards; ++s) {
            Key key = keysOf[s][rngs[c].next() % keysOf[s].size()];
            issueOne(c, key, rngs[c]);
        }
        if (c % 100 == 99)
            harvest();
    }
    drain();

    // Only dead-shard ops may have failed, and live-shard ops from
    // every session completed.
    EXPECT_LE(failures, static_cast<size_t>(kSessions) + 64)
        << "live-shard ops failed under the crash";
    ASSERT_GE(merged.size(),
              static_cast<size_t>(kSessions) * kPhase1Rounds);

    app::LinReport report = app::checkShardedHistory(merged);
    EXPECT_TRUE(report.ok())
        << "shard " << app::shardOfKey(report.offendingKey, kShards)
        << ": " << report.detail;
}

} // namespace
} // namespace hermes
