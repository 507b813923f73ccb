/**
 * @file
 * The sharded TCP deployment end-to-end: S per-shard replica groups in
 * one process (one event-loop thread per replica), an address map
 * exchanged at HELLO and refreshed on WrongShard, and the multi-shard
 * KvClient whose bounded re-resolve-and-reroute loop turns the redirect
 * status into a working route — including from arbitrarily stale maps.
 * The heavyweight case records a shard-tagged history from concurrent
 * clients over real sockets and runs the linearizability checker on it,
 * plus a kill-one-shard fault case proving the groups share no fate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "app/cluster.hh"
#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "support/free_port.hh"
#include "support/stale_map.hh"
#include "support/str_cat.hh"

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
constexpr uint16_t kBasePort = 23000;

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

/** First key (from 1) owned by @p shard under an S-way map. */
Key
keyOwnedBy(uint32_t shard, size_t shards, Key start = 1)
{
    for (Key k = start;; ++k) {
        if (app::shardOfKey(k, shards) == shard)
            return k;
    }
}

TEST(ShardedTcp, HelloNegotiatesDeploymentMap)
{
    net::TcpConfig config;
    test::PortLane lane(kBasePort, 6);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, 2, 3, tcpOptions(),
                                    config);
    deployment.start();

    // A fresh client negotiates the full map at HELLO from any replica.
    KvClient client(deployment.portOf(1, 2));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.numShards(), 2u);
    EXPECT_EQ(client.addressMap(), deployment.addressMap());

    // Ops route to the owning group, whichever shard that is.
    for (uint32_t s = 0; s < 2; ++s) {
        Key key = keyOwnedBy(s, 2);
        ASSERT_TRUE(client.write(key, test::strCat("shard-", s)));
        EXPECT_EQ(client.lastStatus(), net::ClientReplyMsg::Status::Ok);
        EXPECT_EQ(client.read(key).value_or("?"),
                  test::strCat("shard-", s));
    }

    // Each value really lives in its own group and nowhere else: ask the
    // groups directly with shard-local clients.
    for (uint32_t s = 0; s < 2; ++s) {
        KvClient local(deployment.portOf(s, 0));
        EXPECT_EQ(local.read(keyOwnedBy(s, 2)).value_or("?"),
                  test::strCat("shard-", s));
    }
}

TEST(ShardedTcp, StaleMapClientConvergesOnRealDeployment)
{
    // THE bugfix case: a client holding a stale (unsharded) map against
    // a live S=4 deployment. Its stale-stamped attempt is rejected; the
    // reply's slot and address maps let the client reconnect to the
    // owning shard and complete — no op may surface WrongShard, which is
    // exactly what the old single-socket retry could not do.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 16, kShards * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    KvClient stale(deployment.portOf(2, 0));
    ASSERT_TRUE(stale.connected());
    ASSERT_TRUE(stale.adoptAdvertisedMap(test::staleMap(1)));
    EXPECT_EQ(stale.numShards(), 1u);

    for (Key key = 1; key <= 40; ++key) {
        ASSERT_TRUE(stale.write(key, test::strCat("v", key)))
            << "key " << key << " (shard "
            << app::shardOfKey(key, kShards) << ") status "
            << static_cast<int>(stale.lastStatus());
        EXPECT_EQ(stale.lastStatus(), net::ClientReplyMsg::Status::Ok);
    }
    // The redirect loop converged onto the real deployment's map.
    EXPECT_EQ(stale.numShards(), kShards);

    for (Key key = 1; key <= 40; ++key)
        EXPECT_EQ(stale.read(key).value_or("?"), test::strCat("v", key));

    // Cross-check through an independent fresh client: the values landed
    // on the groups the deployment map says own them.
    KvClient fresh(deployment.portOf(0, 1));
    for (Key key = 1; key <= 40; ++key)
        EXPECT_EQ(fresh.read(key).value_or("?"), test::strCat("v", key));
}

TEST(ShardedTcp, GarbageShardStampRejectedBeforeHashing)
{
    // A raw client stamping nonsense (count 0, count/shard from another
    // generation, shard id far out of range) must get WrongShard + the
    // full map back — never an assert, never a served op — and the
    // service must keep serving well-formed clients afterwards.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 48, 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/1);
    service.start();

    net::TcpClient raw(service.portOf(0));
    ASSERT_TRUE(raw.connected());

    uint64_t req_id = 1;
    auto expectRejected = [&](uint32_t num_shards, uint32_t shard) {
        net::ClientRequestMsg request;
        request.op = net::ClientRequestMsg::Op::Write;
        request.reqId = req_id++;
        request.key = 7;
        request.shard = shard;
        request.numShards = num_shards;
        request.value = "garbage-stamped";
        auto reply = raw.call(request, 5_s);
        ASSERT_TRUE(reply);
        ASSERT_EQ(reply->type(), net::MsgType::ClientReply);
        auto &r = static_cast<net::ClientReplyMsg &>(*reply);
        EXPECT_EQ(r.status, net::ClientReplyMsg::Status::WrongShard)
            << "stamp (" << num_shards << ", " << shard << ")";
        EXPECT_EQ(r.mapShards, kShards);
        EXPECT_EQ(r.mapShard, 1u);
        ASSERT_EQ(r.mapPorts.size(), kShards)
            << "the rejection must carry the full map";
    };

    expectRejected(/*num_shards=*/0, /*shard=*/0);
    expectRejected(/*num_shards=*/0, /*shard=*/0xFFFFFFFFu);
    expectRejected(/*num_shards=*/7777, /*shard=*/7776);
    expectRejected(/*num_shards=*/kShards, /*shard=*/kShards + 3);

    // Still alive and serving correct traffic.
    KvClient sane(service.portOf(2));
    Key owned = keyOwnedBy(1, kShards);
    ASSERT_TRUE(sane.write(owned, "after-garbage"));
    EXPECT_EQ(sane.read(owned).value_or("?"), "after-garbage");
}

TEST(ShardedTcp, EndToEndLinCheckedUnderConcurrentLoad)
{
    // The acceptance-bar deployment: S=4 x 3 replicas over real sockets,
    // >= 10k mixed ops (reads, uniquely-tagged writes, CAS) from 4
    // concurrent clients — one of them starting with a stale map — all
    // recorded as a shard-tagged history and linearizability-checked
    // shard by shard.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 64, kShards * 3);
    config.basePort = lane.base();
    constexpr int kClients = 4;
    constexpr int kOpsPerClient = 2600;
    constexpr Key kKeySpace = 48;
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    std::vector<app::History> histories(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&deployment, &histories, &failures, c] {
            // Client 0 starts deliberately stale (believes unsharded) on
            // top of the mixed load; the loop must heal it in-flight.
            KvClient client(deployment.portOf(c % kShards, c % 3));
            if (c == 0) {
                EXPECT_TRUE(client.adoptAdvertisedMap(test::staleMap(1)));
            }
            Rng rng(0xFEED + c);
            for (int i = 0; i < kOpsPerClient; ++i) {
                app::HistOp op;
                op.key = 1 + rng.next() % kKeySpace;
                op.shard = app::shardOfKey(op.key, kShards);
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
                    // Half expect genesis (may win on fresh keys), half
                    // expect a foreign value (exercise the failure path).
                    if (rng.nextBool(0.5))
                        op.expected = Value{};
                    else
                        op.expected = test::strCat("alien-", rng.next());
                    auto seen =
                        client.casObserve(op.key, op.expected, op.arg, 20_s);
                    completed = seen.has_value();
                    if (completed) {
                        op.casApplied = seen->first;
                        op.result = seen->second;
                    }
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
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    app::History merged;
    for (const app::History &h : histories)
        for (const app::HistOp &op : h.ops())
            merged.add(op);
    ASSERT_GE(merged.size(), 10000u);

    app::LinReport report = app::checkShardedHistory(merged);
    EXPECT_TRUE(report.ok())
        << "shard " << app::shardOfKey(report.offendingKey, kShards)
        << ": " << report.detail;
}

TEST(ShardedTcp, SeedShardForgottenWhenNonSeedReplyChangesMap)
{
    // Regression: the client remembers which shard its seed serves
    // (seedShard_) so seed-owned keys skip a dial. That memory is bound
    // to the shard COUNT it was learned under. When a reply from a
    // NON-seed connection teaches a new count, the old code kept the
    // stale seedShard_ — and then routed every key hashing to that id
    // under the NEW map back to the seed. Against a seed from an older
    // deployment generation the op ping-pongs maps until the stamps
    // agree with the stale service, which then silently serves a key
    // the real deployment owns: a write that "succeeds" but is lost.
    net::TcpConfig real_config;
    const size_t kShards = 4;
    test::PortLane real_lane(kBasePort + 128, kShards * 3);
    real_config.basePort = real_lane.base();
    ShardedTcpDeployment real(Protocol::Hermes, kShards, 3, tcpOptions(),
                              real_config);
    real.start();

    // The previous generation: a standalone S=2 group serving shard 1,
    // whose deployment map points shard 0 at the NEW deployment — the
    // bridge that lets a client of the old seed reach (and be taught
    // by) the new generation through a non-seed connection.
    net::TcpConfig old_config;
    test::PortLane old_lane(kBasePort + 160, 3);
    old_config.basePort = old_lane.base();
    TcpKvService old_gen(Protocol::Hermes, 3, tcpOptions(), old_config,
                         /*num_shards=*/2, /*shard_id=*/1);
    app::ShardAddressMap bridge(2);
    bridge[0] = real.addressMap()[0];
    for (size_t r = 0; r < 3; ++r)
        bridge[1].push_back(old_gen.portOf(static_cast<NodeId>(r)));
    old_gen.setDeploymentMap(bridge);
    old_gen.start();

    // HELLO on the OLD seed: the client believes S=2 and remembers the
    // seed serves (old) shard 1.
    KvClient client(old_gen.portOf(0));
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.numShards(), 2u);

    // An op on an old-shard-0 key dials the bridge, lands on the new
    // deployment, and adopts the S=4 map from its WrongShard reply —
    // a NON-seed teaching. The op completes on the new deployment.
    Key k_teach = keyOwnedBy(0, 2);
    ASSERT_TRUE(client.write(k_teach, "taught"));
    ASSERT_EQ(client.numShards(), kShards);

    // Now the poisoned route: a key owned by NEW shard 1 (which, under
    // splitmix64 % S, always hashed to OLD shard 1 too — exactly the
    // collision that made the stale seedShard_ look right). The write
    // must land on the real deployment, not on the old-generation seed.
    Key k_bug = keyOwnedBy(1, kShards);
    ASSERT_EQ(app::shardOfKey(k_bug, 2), 1u);
    ASSERT_TRUE(client.write(k_bug, "must-reach-real-deployment"));
    EXPECT_EQ(client.lastStatus(), net::ClientReplyMsg::Status::Ok);

    KvClient fresh(real.portOf(0, 0));
    EXPECT_EQ(fresh.read(k_bug).value_or("?"),
              "must-reach-real-deployment")
        << "the write was served by the old-generation seed and lost";
}

TEST(ShardedTcp, RerouteLoopHonorsPerOpDeadline)
{
    // Regression: callRerouting used to hand the FULL timeout to every
    // attempt, so an op bouncing between disagreeing services (each
    // WrongShard teaching a map the other rejects, with dead addresses
    // burning 20 ms dial-retry sleeps in between) took many times its
    // timeout in wall clock. The fix threads one deadline through every
    // attempt and every dial: a 50 ms op must fail within ~a dial
    // round, never 4 x (timeout + dials).
    test::PortLane dead(kBasePort + 250, 2); // nothing listens there
    const uint16_t dead_a = dead.base();
    const uint16_t dead_b = dead.base() + 1;

    // Service A: S=2 generation, serves shard 0; its map sends shard-1
    // keys through two dead ports to service B.
    net::TcpConfig config_a;
    test::PortLane lane_a(kBasePort + 192, 3);
    config_a.basePort = lane_a.base();
    TcpKvService a(Protocol::Hermes, 3, tcpOptions(), config_a,
                   /*num_shards=*/2, /*shard_id=*/0);
    // Service B: S=4 generation, serves shard 0; its map sends every
    // non-owned shard through the dead ports back to A.
    net::TcpConfig config_b;
    test::PortLane lane_b(kBasePort + 224, 3);
    config_b.basePort = lane_b.base();
    TcpKvService b(Protocol::Hermes, 3, tcpOptions(), config_b,
                   /*num_shards=*/4, /*shard_id=*/0);

    app::ShardAddressMap map_a(2);
    for (size_t r = 0; r < 3; ++r)
        map_a[0].push_back(a.portOf(static_cast<NodeId>(r)));
    map_a[1] = {dead_a, dead_b, b.portOf(0)};
    a.setDeploymentMap(map_a);

    app::ShardAddressMap map_b(4);
    for (size_t r = 0; r < 3; ++r)
        map_b[0].push_back(b.portOf(static_cast<NodeId>(r)));
    for (size_t s = 1; s < 4; ++s)
        map_b[s] = {dead_a, dead_b, a.portOf(0)};
    b.setDeploymentMap(map_b);

    a.start();
    b.start();

    KvClient client(a.portOf(0));
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.numShards(), 2u);

    // A key neither service will serve under the other's stamp: owned
    // by old shard 1 (so A redirects toward B) and by a new shard B
    // does not serve (so B redirects back toward A).
    Key key = keyOwnedBy(1, 2);
    ASSERT_NE(app::shardOfKey(key, 4), 0u);

    TimeNs start = wallNowNs();
    EXPECT_FALSE(client.write(key, "never-lands", 50_ms));
    TimeNs elapsed = wallNowNs() - start;
    EXPECT_LT(elapsed, 240_ms)
        << "a 50 ms op burned " << elapsed / 1000000 << " ms rerouting";
}

TEST(ShardedTcp, KilledShardLeavesOthersServing)
{
    // Fault isolation: kill one whole shard group (all three replica
    // loops). Keys of the dead shard fail fast; every other group keeps
    // serving reads and writes undisturbed.
    net::TcpConfig config;
    const size_t kShards = 4;
    test::PortLane lane(kBasePort + 96, kShards * 3);
    config.basePort = lane.base();
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    KvClient client(deployment.portOf(0, 0));
    ASSERT_TRUE(client.connected());
    for (uint32_t s = 0; s < kShards; ++s)
        ASSERT_TRUE(client.write(keyOwnedBy(s, kShards),
                                 test::strCat("pre-", s)));

    const uint32_t kDead = 3;
    deployment.crashShard(kDead);

    // Survivor shards: both cached connections and fresh clients work.
    for (uint32_t s = 0; s < kShards; ++s) {
        if (s == kDead)
            continue;
        Key key = keyOwnedBy(s, kShards);
        EXPECT_EQ(client.read(key).value_or("?"),
                  test::strCat("pre-", s));
        ASSERT_TRUE(client.write(key, test::strCat("post-", s)));
        KvClient fresh(deployment.portOf(s, 1));
        EXPECT_EQ(fresh.read(key).value_or("?"),
                  test::strCat("post-", s));
    }

    // The dead shard's keys fail (timeout/refused), and the failure does
    // not wedge the client for later ops on live shards.
    Key dead_key = keyOwnedBy(kDead, kShards);
    EXPECT_FALSE(client.write(dead_key, "lost", 500_ms));
    EXPECT_FALSE(client.read(dead_key, 500_ms).has_value());
    EXPECT_EQ(client.read(keyOwnedBy(0, kShards)).value_or("?"), "post-0");
}

} // namespace
} // namespace hermes
