/**
 * @file
 * The TCP backend end-to-end: the same protocol engines the simulator
 * runs, on real sockets with Wings batching and credits — replica-to-
 * replica traffic, external clients, Hermes and CRAQ deployments, a
 * node kill (which manifests as message loss the protocols absorb), and
 * frames held until the log records they wait for are durable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "app/cluster.hh"
#include "app/tcp_service.hh"
#include "hermes/messages.hh"
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
using app::TcpKvService;

/** Where test case @p n starts probing for its ports. */
uint16_t
laneStart(uint16_t n)
{
    return static_cast<uint16_t>(21000 + n * 16);
}

ReplicaOptions
tcpOptions()
{
    ReplicaOptions options;
    options.storeCapacity = 1 << 12;
    options.maxValueSize = 256;
    options.hermesConfig.mlt = 50_ms; // wall-clock timers
    return options;
}

TEST(TcpCluster, HermesWriteReadAcrossReplicas)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(0), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvClient writer(service.portOf(0));
    ASSERT_TRUE(writer.connected());
    ASSERT_TRUE(writer.write(1, "over-tcp"));

    KvClient reader(service.portOf(2));
    ASSERT_TRUE(reader.connected());
    auto value = reader.read(1);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "over-tcp");
}

TEST(TcpCluster, HermesCasOverTcp)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(1), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvClient client(service.portOf(1));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.cas(5, "", "lock-holder"), std::optional<bool>(true));
    EXPECT_EQ(client.cas(5, "", "thief"), std::optional<bool>(false));
    EXPECT_EQ(client.read(5).value_or("?"), "lock-holder");
}

TEST(TcpCluster, ManySequentialOpsBatchAndFlow)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(2), 3);
    config.basePort = lane.base();
    config.creditsPerLink = 16; // force credit recycling
    config.creditReturnBatch = 4;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(client.write(i % 10, test::strCat("v", i)))
            << "write " << i;
    KvClient reader(service.portOf(1));
    EXPECT_EQ(reader.read(9).value_or("?"), "v199");
}

TEST(TcpCluster, ConcurrentClientsOnDifferentReplicas)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(3), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&service, &failures, t] {
            KvClient client(service.portOf(t));
            for (int i = 0; i < 50; ++i) {
                Key key = 100 + t; // distinct key per client
                if (!client.write(key, test::strCat("c", t, "i", i))) {
                    ++failures;
                }
            }
        });
    }
    for (auto &c : clients)
        c.join();
    EXPECT_EQ(failures.load(), 0);

    KvClient reader(service.portOf(0));
    for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(reader.read(100 + t).value_or("?"),
                  test::strCat("c", t, "i49"));
    }
}

TEST(TcpCluster, CraqOverTcp)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(4), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Craq, 3, tcpOptions(), config);
    service.start();

    KvClient client(service.portOf(1)); // non-head replica
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.write(7, "chain"));
    KvClient reader(service.portOf(2));
    EXPECT_EQ(reader.read(7).value_or("?"), "chain");
}

TEST(TcpCluster, ZabOverTcp)
{
    net::TcpConfig config;
    test::PortLane lane(laneStart(5), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Zab, 3, tcpOptions(), config);
    service.start();

    KvClient client(service.portOf(2)); // follower forwards to leader
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.write(3, "zab"));
    // SC reads: the origin replica applied it before replying.
    EXPECT_EQ(client.read(3).value_or("?"), "zab");
}

TEST(TcpCluster, WrongShardRequestsAreRejectedExplicitly)
{
    // A 4-shard deployment's group serving shard `s`, standing alone (no
    // deployment map): requests for keys owned by other groups must come
    // back as an explicit WrongShard status — the service advertises no
    // address to re-route to, so the client surfaces the rejection
    // instead of silently being served from the wrong group.
    net::TcpConfig config;
    test::PortLane lane(laneStart(7), 3);
    config.basePort = lane.base();
    const size_t kShards = 4;
    // Pick keys owned / not owned by shard 0 under the 4-way map.
    Key owned = 0, foreign = 0;
    for (Key k = 1; !owned || !foreign; ++k) {
        if (app::shardOfKey(k, kShards) == 0)
            owned = owned ? owned : k;
        else
            foreign = foreign ? foreign : k;
    }
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/0);
    service.start();

    // A client sharing the service's map: owned keys are served, keys it
    // would route elsewhere are rejected here.
    KvClient fresh(service.portOf(0));
    ASSERT_TRUE(fresh.connected());
    ASSERT_TRUE(fresh.write(owned, "right-home"));
    EXPECT_EQ(fresh.lastStatus(), net::ClientReplyMsg::Status::Ok);
    EXPECT_EQ(fresh.read(owned).value_or("?"), "right-home");

    EXPECT_FALSE(fresh.write(foreign, "lost"));
    EXPECT_EQ(fresh.lastStatus(),
              net::ClientReplyMsg::Status::WrongShard);
    EXPECT_FALSE(fresh.read(foreign).has_value());
    EXPECT_EQ(fresh.lastStatus(),
              net::ClientReplyMsg::Status::WrongShard);
    EXPECT_FALSE(fresh.cas(foreign, "", "x").has_value());
    EXPECT_EQ(fresh.lastStatus(),
              net::ClientReplyMsg::Status::WrongShard);

    // A stale client believing the deployment is unsharded stamps
    // shard 0 for every key; keys that actually live on shard 0 under
    // the real map still collide correctly, the rest are rejected.
    KvClient stale(service.portOf(1));
    ASSERT_TRUE(stale.connected());
    ASSERT_TRUE(stale.adoptAdvertisedMap(test::staleMap(1)));
    EXPECT_EQ(stale.numShards(), 1u);
    ASSERT_TRUE(stale.write(owned, "still-right"));
    EXPECT_FALSE(stale.write(foreign, "misrouted"));
    EXPECT_EQ(stale.lastStatus(),
              net::ClientReplyMsg::Status::WrongShard);

    // The rejected keys were never applied anywhere in this group.
    KvClient check(service.portOf(2));
    EXPECT_EQ(check.read(owned).value_or("?"), "still-right");
}

TEST(TcpCluster, StaleShardMapSelfHeals)
{
    // A client whose shard *count* is stale but whose key really lives
    // on the connected group: the first request is rejected WrongShard,
    // the reply advertises the service's map (mapShards/mapShard), and
    // the client's re-resolve-and-reroute loop retries with the
    // corrected stamp — the call succeeds and the caller never sees the
    // stale-map hiccup.
    net::TcpConfig config;
    test::PortLane lane(laneStart(8), 3);
    config.basePort = lane.base();
    const size_t kShards = 4;
    // A key owned by shard 0 under the real 4-way map but stamped for a
    // different shard under a stale 3-way map. (A stale count of 2 would
    // never disagree on shard-0 keys: hash % 4 == 0 implies
    // hash % 2 == 0.)
    Key healable = 0;
    for (Key k = 1; !healable; ++k) {
        if (app::shardOfKey(k, kShards) == 0 && app::shardOfKey(k, 3) != 0)
            healable = k;
    }
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/0);
    service.start();

    KvClient stale(service.portOf(0));
    ASSERT_TRUE(stale.connected());
    ASSERT_TRUE(stale.adoptAdvertisedMap(test::staleMap(3)));
    EXPECT_EQ(stale.numShards(), 3u);
    ASSERT_TRUE(stale.write(healable, "healed"))
        << "stale map should re-resolve and retry, not surface";
    EXPECT_EQ(stale.lastStatus(), net::ClientReplyMsg::Status::Ok);
    // The client adopted the service's shard count for future calls.
    EXPECT_EQ(stale.numShards(), kShards);
    EXPECT_EQ(stale.read(healable).value_or("?"), "healed");

    // A key that genuinely lives on another group still surfaces
    // WrongShard (re-resolution cannot route it to this group).
    Key foreign = 0;
    for (Key k = 1; !foreign; ++k) {
        if (app::shardOfKey(k, kShards) != 0)
            foreign = k;
    }
    EXPECT_FALSE(stale.write(foreign, "lost"));
    EXPECT_EQ(stale.lastStatus(), net::ClientReplyMsg::Status::WrongShard);
}

TEST(TcpCluster, HelloNegotiatesMapAgainstStandaloneGroup)
{
    // A fresh client (no shard count given) negotiates the map at HELLO:
    // against a standalone group of a 4-way deployment it adopts count 4
    // and the group's own address entry before the first real op.
    net::TcpConfig config;
    test::PortLane lane(laneStart(9), 3);
    config.basePort = lane.base();
    const size_t kShards = 4;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/0);
    service.start();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.numShards(), kShards);
    ASSERT_EQ(client.addressMap().size(), kShards);
    EXPECT_EQ(client.addressMap()[0],
              (net::ShardPorts{service.portOf(0), service.portOf(1),
                               service.portOf(2)}));
    EXPECT_TRUE(client.addressMap()[1].empty())
        << "a standalone group can only vouch for itself";

    Key owned = 0;
    for (Key k = 1; !owned; ++k)
        if (app::shardOfKey(k, kShards) == 0)
            owned = k;
    ASSERT_TRUE(client.write(owned, "hello-routed"));
    EXPECT_EQ(client.read(owned).value_or("?"), "hello-routed");
}

TEST(TcpCluster, PartialWriteBackpressureKeepsFramesByteIdentical)
{
    // Regression for the writeStaged partial-write tail queue: shrink
    // SO_SNDBUF on every mesh socket so the gathered writev()s of
    // KiB-sized INV values overrun the kernel buffer and re-stage their
    // unwritten tails. Four concurrent writers keep the links
    // backpressured; every value must come back byte-identical from
    // replicas that only ever saw it through re-staged frames.
    net::TcpConfig config;
    test::PortLane lane(laneStart(10), 3);
    config.basePort = lane.base();
    // Shrink BOTH buffers (kernel clamps to its floors; still a few KB
    // per side): a link can then hold well under ~12KB in flight, so
    // every gathered INV below — 20KB+ of value — is guaranteed to come
    // up short and exercise the tail re-staging. Asserted via the
    // partial-tail counter, not hoped for.
    config.sndbufBytes = 2048;
    config.rcvbufBytes = 2048;
    ReplicaOptions options = tcpOptions();
    options.maxValueSize = 32768;
    options.storeCapacity = 1 << 10;
    TcpKvService service(Protocol::Hermes, 3, options, config);
    service.start();

    const uint64_t tails_before = net::TcpCluster::partialWriteTails();

    auto patternValue = [](int writer, int i) {
        std::string v(20000 + ((writer * 53 + i * 17) % 8000), '\0');
        for (size_t b = 0; b < v.size(); ++b)
            v[b] = static_cast<char>((writer * 131 + i * 31 + b) & 0xFF);
        return v;
    };

    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    constexpr int kWriters = 4;
    constexpr int kOpsPerWriter = 12;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&service, &failures, &patternValue, w] {
            KvClient client(service.portOf(w % 3));
            for (int i = 0; i < kOpsPerWriter; ++i) {
                Key key = 1000 + w * kOpsPerWriter + i;
                if (!client.write(key, patternValue(w, i), 20_s))
                    ++failures;
            }
        });
    }
    for (auto &t : writers)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    // The load must actually have driven the path under test: at least
    // one gather-mode writev came up short and re-staged its tail.
    EXPECT_GT(net::TcpCluster::partialWriteTails(), tails_before)
        << "no partial writev occurred — the regression test is inert";

    // Read every key back from every replica: local reads, so replica 1
    // and 2 return exactly the bytes the re-staged INV frames carried.
    for (NodeId n = 0; n < 3; ++n) {
        KvClient reader(service.portOf(n));
        for (int w = 0; w < kWriters; ++w) {
            for (int i = 0; i < kOpsPerWriter; ++i) {
                Key key = 1000 + w * kOpsPerWriter + i;
                auto got = reader.read(key, 20_s);
                ASSERT_TRUE(got.has_value())
                    << "key " << key << " at replica " << n;
                ASSERT_EQ(*got, patternValue(w, i))
                    << "key " << key << " at replica " << n
                    << ": re-staged frame bytes diverged";
            }
        }
    }
}

TEST(TcpCluster, PeerCrashUnderLoadRaisesNoSigpipe)
{
    // Regression: a replica crashing while its peers still stream INVs
    // and ACKs to it turns their next socket write into EPIPE. Without
    // MSG_NOSIGNAL on every write, that write also raises SIGPIPE, whose
    // default action kills the whole process — every replica and client
    // in it. The race needs data in flight at the crash, so run it a
    // number of rounds under a pipelined write load.
    auto previous = std::signal(SIGPIPE, SIG_DFL);
    const std::string value(200, 'p');
    constexpr int kRounds = 20;
    constexpr int kOps = 2000;
    for (int round = 0; round < kRounds; ++round) {
        net::TcpConfig config;
        test::PortLane lane(static_cast<uint16_t>(laneStart(11) + 3 * round),
                            3);
        config.basePort = lane.base();
        TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
        service.start();

        app::KvSessionClient session(service.portOf(0));
        ASSERT_TRUE(session.connected());
        for (int i = 0; i < kOps; ++i) {
            if (i == kOps / 2)
                service.crash(2);
            session.writeAsync(1 + i % 64, value, 300_ms);
            session.progress();
        }
        session.waitAll();
    }
    std::signal(SIGPIPE, previous);
}

TEST(TcpCluster, SurvivesFollowerKill)
{
    // Kill a follower: Hermes writes block on its ACK until the view is
    // updated — here we inject the m-update by hand (no RM agent in this
    // deployment), mirroring an external membership service.
    net::TcpConfig config;
    test::PortLane lane(laneStart(6), 3);
    config.basePort = lane.base();
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.write(1, "before"));

    service.crash(2);
    membership::MembershipView after{2, {0, 1}};
    service.cluster().runOn(0, [&] { service.replica(0).injectView(after); });
    service.cluster().runOn(1, [&] { service.replica(1).injectView(after); });

    ASSERT_TRUE(client.write(1, "after-kill"));
    KvClient reader(service.portOf(1));
    EXPECT_EQ(reader.read(1).value_or("?"), "after-kill");
}

TEST(Tcp, ReplyDrainingPausedSessionResumesAtPollBoundary)
{
    // Replies are staged straight from the loop thread, often inside the
    // very parse that delivered the request (a local read answers
    // synchronously). A window-1 session pauses at every write; the
    // write's commit drains it, and reading resumes at the next poll
    // boundary, never by re-entering a parse. With one request in
    // flight the server serves the session strictly in order: replies
    // arrive in issue order and every read sees the write before it.
    net::TcpConfig config;
    test::PortLane lane(laneStart(16), 3);
    config.basePort = lane.base();
    config.clientSessionCredits = 1;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    app::KvSessionClient session(service.portOf(1));
    ASSERT_TRUE(session.connected());
    session.awaitHello();
    session.overrideWindow(1000); // flood; the server enforces 1

    struct Issued
    {
        uint64_t token;
        std::string expect; ///< reads: the value written just before
    };
    std::vector<Issued> issued;
    constexpr int kWrites = 40;
    for (int w = 0; w < kWrites; ++w) {
        Key key = 1 + w % 4;
        std::string value = test::strCat("p", w);
        issued.push_back({session.writeAsync(key, value), ""});
        for (int r = 0; r < 3; ++r)
            issued.push_back({session.readAsync(key), value});
    }

    size_t next = 0; // replies so far form a prefix of the issue order
    while (next < issued.size()) {
        session.progress();
        while (next < issued.size()) {
            auto result = session.take(issued[next].token);
            if (!result)
                break;
            ASSERT_TRUE(result->completed) << "op " << next;
            if (!issued[next].expect.empty()) {
                EXPECT_EQ(result->value, issued[next].expect)
                    << "op " << next;
            }
            ++next;
        }
        for (size_t later = next + 1; later < issued.size(); ++later)
            ASSERT_FALSE(session.take(issued[later].token))
                << "op " << later << " answered before op " << next;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_GT(net::TcpCluster::sessionPauses(), 0u);
    EXPECT_LE(net::TcpCluster::maxSessionInflight(), 1u);
}

/** A log whose records "append" and turn durable when the test says. */
class StubLog : public DurableLog
{
  public:
    void flush() override {}
    uint64_t appendedSeq() const override { return appended; }
    uint64_t durableSeq() const override { return durable.load(); }
    void deliverDurable(uint64_t) override {}
    void
    waitDurable(uint64_t seq) override
    {
        while (durable.load() < seq)
            std::this_thread::yield();
    }
    void startWriter(std::function<void()> w) override { wake = std::move(w); }

    /** Any thread: records up to @p seq are durable now. */
    void
    makeDurable(uint64_t seq)
    {
        durable.store(seq);
        wake();
    }

    uint64_t appended = 0; ///< set on the loop thread (runOn)
    std::atomic<uint64_t> durable{0};
    std::function<void()> wake;
};

/** Records the key of every VAL delivered to it, in arrival order,
 *  except probes (key 0), which it only notes. */
class ValRecorder : public net::Node
{
  public:
    void
    onMessage(const net::MessagePtr &msg) override
    {
        std::lock_guard<std::mutex> guard(mutex_);
        Key key = static_cast<const proto::ValMsg &>(*msg).key;
        if (key == 0)
            probed_ = true;
        else
            keys_.push_back(key);
    }

    bool
    probed()
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return probed_;
    }

    /** The keys so far, once there are @p n of them or @p budget ran
     *  out. */
    std::vector<Key>
    await(size_t n, std::chrono::milliseconds budget)
    {
        auto deadline = std::chrono::steady_clock::now() + budget;
        for (;;) {
            {
                std::lock_guard<std::mutex> guard(mutex_);
                if (keys_.size() >= n
                        || std::chrono::steady_clock::now() >= deadline)
                    return keys_;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

  private:
    std::mutex mutex_;
    std::vector<Key> keys_;
    bool probed_ = false;
};

TEST(TcpLogRelease, FramesLeaveInOrderOnceTheirRecordsAreDurable)
{
    // Node 0's frames wait for the stub log's records: a frame stamped
    // with record n must not reach node 1 before the log is durable up
    // to n, a NoLogWait frame leaves at once, and one connection's
    // frames arrive in the order they were staged.
    proto::registerHermesCodecs();
    StubLog log; // outlives the cluster, whose loop reads it
    ValRecorder sender, receiver;
    net::TcpConfig config;
    test::PortLane lane(laneStart(17), 2);
    config.basePort = lane.base();
    net::TcpCluster cluster(2, config);
    cluster.attach(0, &sender);
    cluster.attach(1, &receiver);
    cluster.env(0).attachLog(&log);
    cluster.start();

    auto send = [&cluster](Key key, bool wait_for_log) {
        auto val = std::make_shared<proto::ValMsg>();
        val->key = key;
        if (wait_for_log) {
            cluster.env(0).send(1, val);
        } else {
            net::NoLogWait unlogged(cluster.env(0));
            cluster.env(0).send(1, val);
        }
    };
    constexpr auto kQuiet = std::chrono::milliseconds(150);
    constexpr auto kBudget = std::chrono::milliseconds(5000);

    // start()'s mesh barrier does not wait for node 0 to read the hello
    // of the socket node 1 dialed to it, and a frame to a peer not known
    // yet is dropped: probe until one gets through.
    for (int i = 0; i < 250 && !receiver.probed(); ++i) {
        cluster.runOn(0, [&] { send(0, false); });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(receiver.probed());

    // Record 1 is not durable, yet a frame that waits for nothing leaves.
    cluster.runOn(0, [&] {
        log.appended = 1;
        send(10, false);
    });
    EXPECT_EQ(receiver.await(1, kBudget), std::vector<Key>({10}));

    // A frame stamped with record 1 waits, and so does the NoLogWait
    // frame staged behind it on the same connection.
    cluster.runOn(0, [&] {
        send(11, true);
        send(12, false);
    });
    EXPECT_EQ(receiver.await(2, kQuiet), std::vector<Key>({10}));
    log.makeDurable(1);
    EXPECT_EQ(receiver.await(3, kBudget), std::vector<Key>({10, 11, 12}));

    // Durable up to 1 does not release a frame stamped with record 2.
    cluster.runOn(0, [&] {
        log.appended = 2;
        send(13, true);
    });
    EXPECT_EQ(receiver.await(4, kQuiet).size(), 3u);
    log.makeDurable(2);
    EXPECT_EQ(receiver.await(4, kBudget),
              std::vector<Key>({10, 11, 12, 13}));
    cluster.stop();
}

/** Post to node @p src 's loop: send one VAL keyed src + 1 (key 0 is
 *  ValRecorder's probe) to each node in @p dsts but @p src. */
void
sendFrom(net::TcpCluster &cluster, NodeId src, std::vector<NodeId> dsts)
{
    cluster.post(src, [&cluster, src, dsts] {
        for (NodeId dst : dsts) {
            if (dst == src)
                continue;
            auto val = std::make_shared<proto::ValMsg>();
            val->key = src + 1;
            cluster.env(src).send(dst, val);
        }
    });
}

TEST(TcpMesh, FramesSentRightAfterStartReachEveryPeer)
{
    // start() returns only once every node routes to every other: an
    // accepting node has read the hello of each peer that dialed it, so
    // no frame sent at once is dropped as sent to an unknown peer.
    proto::registerHermesCodecs();
    constexpr size_t kNodes = 4;
    const std::vector<NodeId> all{0, 1, 2, 3};
    test::PortLane lane(laneStart(18), kNodes);
    for (int round = 0; round < 20; ++round) {
        ValRecorder nodes[kNodes];
        net::TcpConfig config;
        config.basePort = lane.base();
        net::TcpCluster cluster(kNodes, config);
        for (NodeId n : all)
            cluster.attach(n, &nodes[n]);
        cluster.start();
        for (NodeId n : all)
            sendFrom(cluster, n, all);
        for (NodeId n : all) {
            std::vector<Key> want;
            for (NodeId src : all) {
                if (src != n)
                    want.push_back(src + 1);
            }
            std::vector<Key> got =
                nodes[n].await(kNodes - 1, std::chrono::milliseconds(5000));
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, want) << "round " << round << ", node " << n;
        }
        cluster.stop();
    }
}

TEST(TcpMesh, FramesSentRightAfterRestartReachTheRestartedNode)
{
    // restart() has the same barrier, over the new life's sockets: the
    // survivors' links to the dead life are gone, so a frame sent at
    // once neither vanishes into a dead socket nor is dropped.
    proto::registerHermesCodecs();
    constexpr size_t kNodes = 3;
    const std::vector<NodeId> all{0, 1, 2};
    test::PortLane lane(laneStart(19), kNodes);
    ValRecorder nodes[kNodes];
    net::TcpConfig config;
    config.basePort = lane.base();
    net::TcpCluster cluster(kNodes, config);
    for (NodeId n : all)
        cluster.attach(n, &nodes[n]);
    cluster.start();
    size_t received[kNodes] = {};
    for (int round = 0; round < 10; ++round) {
        NodeId target = static_cast<NodeId>(round % kNodes);
        cluster.crash(target);
        cluster.restart(target);
        for (NodeId n : all)
            sendFrom(cluster, n, {target});
        std::vector<Key> want;
        for (NodeId src : all) {
            if (src != target)
                want.push_back(src + 1);
        }
        // Each round waits for its frames, so this round's arrive last.
        received[target] += kNodes - 1;
        std::vector<Key> got = nodes[target].await(
            received[target], std::chrono::milliseconds(5000));
        ASSERT_EQ(got.size(), received[target]) << "round " << round;
        got.erase(got.begin(), got.end() - (kNodes - 1));
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "round " << round;
    }
    cluster.stop();
}

} // namespace
} // namespace hermes
