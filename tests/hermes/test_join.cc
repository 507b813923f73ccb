/**
 * @file
 * Node join via shadow replicas (paper §3.4 Recovery): the membership is
 * reliably extended, the new node follows all writes while streaming the
 * datastore in chunks, and becomes operational once caught up.
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "support/cluster_fixture.hh"
#include "support/str_cat.hh"
#include "app/driver.hh"
#include "app/lin_checker.hh"
#include "hermes/messages.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;

ClusterConfig
joinConfig(size_t nodes, size_t initial_live)
{
    ClusterConfig config = test::hermesConfig(nodes);
    config.initialLive = initial_live;
    return config;
}

TEST(HermesJoin, SpareStartsAsShadow)
{
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    EXPECT_TRUE(cluster.replica(3).hermes()->isShadow());
    EXPECT_FALSE(cluster.replica(0).hermes()->isShadow());
    // A shadow serves no reads: the request parks until it's synced.
    auto value = cluster.readSync(3, 1, 5_ms);
    EXPECT_FALSE(value.has_value());
}

TEST(HermesJoin, ShadowSyncTransfersWholeStore)
{
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 300; ++key) {
        ASSERT_TRUE(cluster.writeSync(static_cast<NodeId>(key % 3), key,
                                      test::strCat("v", key)));
    }
    // Reliable m-update first, then the stream (§3.4 ordering).
    membership::MembershipView extended{2, {0, 1, 2, 3}};
    for (NodeId n = 0; n < 4; ++n) {
        cluster.runtime().submit(n, 0, [&cluster, n, extended] {
            cluster.replica(n).injectView(extended);
        });
    }
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(50_ms);

    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    for (Key key = 0; key < 300; ++key) {
        EXPECT_EQ(cluster.readSync(3, key).value_or("?"),
                  test::strCat("v", key))
            << "key " << key;
    }
}

TEST(HermesJoin, ShadowParticipatesInWritesWhileSyncing)
{
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 200; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "old"));

    membership::MembershipView extended{2, {0, 1, 2, 3}};
    for (NodeId n = 0; n < 4; ++n) {
        cluster.runtime().submit(n, 0, [&cluster, n, extended] {
            cluster.replica(n).injectView(extended);
        });
    }
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(1);
    });
    // Writes racing the transfer: they need the shadow's ACK to commit,
    // so the shadow must end up with the NEW values, never regressing.
    for (Key key = 0; key < 200; key += 2)
        ASSERT_TRUE(cluster.writeSync(2, key, "new", 50_ms));
    cluster.runFor(50_ms);

    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    for (Key key = 0; key < 200; ++key) {
        EXPECT_EQ(cluster.readSync(3, key).value_or("?"),
                  key % 2 == 0 ? "new" : "old")
            << "key " << key;
        EXPECT_TRUE(cluster.converged(key)) << "key " << key;
    }
}

TEST(HermesJoin, ChunkLossRecoveredByRetry)
{
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 150; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "x"));

    membership::MembershipView extended{2, {0, 1, 2, 3}};
    for (NodeId n = 0; n < 4; ++n) {
        cluster.runtime().submit(n, 0, [&cluster, n, extended] {
            cluster.replica(n).injectView(extended);
        });
    }
    int drops = 0;
    cluster.runtime().network().setDropFilter(
        [&drops](NodeId, NodeId, const net::MessagePtr &msg) {
            if (msg->type() == net::MsgType::HermesStateChunk
                    && drops < 2) {
                ++drops;
                return true;
            }
            return false;
        });
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(100_ms);
    EXPECT_EQ(drops, 2);
    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    EXPECT_EQ(cluster.readSync(3, 149).value_or("?"), "x");
}

TEST(HermesJoin, ShadowLeavingMidSyncFreesSourceSnapshot)
{
    // The source keeps a transfer cursor per shadow until that shadow
    // takes its final chunk. A shadow that crashes mid-transfer never
    // does: the view change removing it must free the cursor, while a
    // view change that keeps the shadow must not.
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 300; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "x"));

    membership::MembershipView extended{2, {0, 1, 2, 3}};
    for (NodeId n = 0; n < 4; ++n) {
        cluster.runtime().submit(n, 0, [&cluster, n, extended] {
            cluster.replica(n).injectView(extended);
        });
    }
    // Only the first chunk gets through: the transfer stalls mid-way.
    int chunks = 0;
    cluster.runtime().network().setDropFilter(
        [&chunks](NodeId, NodeId, const net::MessagePtr &msg) {
            return msg->type() == net::MsgType::HermesStateChunk
                   && chunks++ > 0;
        });
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(5_ms);
    ASSERT_TRUE(cluster.replica(3).hermes()->isShadow());
    EXPECT_EQ(cluster.replica(0).hermes()->transfersInProgress(), 1u);

    // Node 2 leaves; the shadow stays in the view and keeps its cursor.
    membership::MembershipView without2{3, {0, 1, 3}};
    for (NodeId n : {0, 1, 3}) {
        cluster.runtime().submit(n, 0, [&cluster, n, without2] {
            cluster.replica(n).injectView(without2);
        });
    }
    cluster.runFor(1_ms);
    EXPECT_EQ(cluster.replica(0).hermes()->transfersInProgress(), 1u);

    // The shadow crashes mid-transfer and the view drops it.
    cluster.crash(3);
    membership::MembershipView without3{4, {0, 1}};
    for (NodeId n : {0, 1}) {
        cluster.runtime().submit(n, 0, [&cluster, n, without3] {
            cluster.replica(n).injectView(without3);
        });
    }
    cluster.runFor(5_ms);
    EXPECT_EQ(cluster.replica(0).hermes()->transfersInProgress(), 0u);
    // The shrunken group still commits.
    EXPECT_TRUE(cluster.writeSync(1, 7, "after", 20_ms));
}

/** Extend the view of a 3-node cluster with node 3 (a shadow). */
void
addNode3(SimCluster &cluster)
{
    membership::MembershipView extended{2, {0, 1, 2, 3}};
    for (NodeId n = 0; n < 4; ++n) {
        cluster.runtime().submit(n, 0, [&cluster, n, extended] {
            cluster.replica(n).injectView(extended);
        });
    }
}

using ChunkPtr = std::shared_ptr<const proto::StateChunkMsg>;

ChunkPtr
asChunk(const net::MessagePtr &msg)
{
    if (msg->type() != net::MsgType::HermesStateChunk)
        return nullptr;
    return std::static_pointer_cast<const proto::StateChunkMsg>(msg);
}

TEST(HermesJoin, ChunkCarriesKeyRewrittenAfterFirstChunk)
{
    // Chunks are read from the live store: a key rewritten after the
    // first chunk left reaches the shadow in a later chunk with its new
    // timestamp. A snapshot taken at the first request would still carry
    // the old version.
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 200; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "old"));
    addNode3(cluster);

    // Hold the shadow's follow-up requests until the rewrite committed.
    std::vector<ChunkPtr> chunks;
    bool hold = true;
    cluster.runtime().network().setDropFilter(
        [&](NodeId, NodeId, const net::MessagePtr &msg) {
            if (ChunkPtr chunk = asChunk(msg))
                chunks.push_back(chunk);
            return hold && msg->type() == net::MsgType::HermesStateReq
                   && static_cast<const proto::StateReqMsg &>(*msg).offset
                          > 0;
        });
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(2_ms);
    ASSERT_EQ(chunks.size(), 1u);
    ASSERT_FALSE(chunks[0]->done);

    Key rewritten = 0;
    auto inFirstChunk = [&](Key key) {
        for (const proto::StateEntry &entry : chunks[0]->entries)
            if (entry.key == key)
                return true;
        return false;
    };
    while (inFirstChunk(rewritten))
        ++rewritten;
    ASSERT_TRUE(cluster.writeSync(1, rewritten, "new"));
    Timestamp fresh = cluster.replica(0).hermes()->keyTimestamp(rewritten);

    hold = false;
    cluster.runFor(50_ms);
    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    const proto::StateEntry *carried = nullptr;
    for (size_t i = 1; i < chunks.size(); ++i)
        for (const proto::StateEntry &entry : chunks[i]->entries)
            if (entry.key == rewritten)
                carried = &entry;
    ASSERT_NE(carried, nullptr) << "key " << rewritten;
    EXPECT_EQ(carried->ts, fresh);
    EXPECT_EQ(carried->value, "new");
    EXPECT_EQ(cluster.readSync(3, rewritten).value_or("?"), "new");
}

TEST(HermesJoin, ExactMultipleOfChunkSizeSendsNoEmptyChunk)
{
    // 128 keys are two full chunks; the second must already say done.
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 128; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "x"));
    addNode3(cluster);

    std::vector<ChunkPtr> chunks;
    cluster.runtime().network().setDropFilter(
        [&chunks](NodeId, NodeId, const net::MessagePtr &msg) {
            if (ChunkPtr chunk = asChunk(msg))
                chunks.push_back(chunk);
            return false;
        });
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(20_ms);
    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_FALSE(chunks[0]->done);
    EXPECT_EQ(chunks[0]->entries.size(), 64u);
    EXPECT_TRUE(chunks[1]->done);
    EXPECT_EQ(chunks[1]->entries.size(), 64u);
    EXPECT_EQ(cluster.replica(0).hermes()->transfersInProgress(), 0u);
}

TEST(HermesJoin, LostFinalChunkIsServedAgain)
{
    // The source frees its cursor once it sends the final chunk; the
    // shadow's retry for that offset is served by re-walking the store.
    SimCluster cluster(joinConfig(4, 3));
    cluster.start();
    for (Key key = 0; key < 150; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "x"));
    addNode3(cluster);

    ChunkPtr dropped;
    cluster.runtime().network().setDropFilter(
        [&dropped](NodeId, NodeId, const net::MessagePtr &msg) {
            ChunkPtr chunk = asChunk(msg);
            if (!chunk || !chunk->done || dropped)
                return false;
            dropped = chunk;
            return true;
        });
    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(0);
    });
    cluster.runFor(50_ms);
    ASSERT_NE(dropped, nullptr);
    EXPECT_EQ(dropped->offset, 128u);
    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    EXPECT_EQ(cluster.replica(0).hermes()->transfersInProgress(), 0u);
    // The keys only the lost chunk carried reached the shadow anyway.
    ASSERT_FALSE(dropped->entries.empty());
    for (const proto::StateEntry &entry : dropped->entries)
        EXPECT_EQ(cluster.readSync(3, entry.key).value_or("?"), "x")
            << "key " << entry.key;
}

TEST(HermesJoin, JoinViaLiveRmAgents)
{
    // Full path: RM proposeAddition decides the extended view through
    // Paxos, the new node syncs, then serves linearizable reads.
    ClusterConfig config = joinConfig(4, 3);
    config.replica.enableRm = true;
    config.replica.rmConfig.heartbeatInterval = 2_ms;
    config.replica.rmConfig.failureTimeout = 30_ms;
    config.replica.rmConfig.leaseDuration = 10_ms;
    SimCluster cluster(config);
    cluster.start();
    cluster.runFor(5_ms);
    for (Key key = 0; key < 50; ++key)
        ASSERT_TRUE(cluster.writeSync(0, key, "pre-join"));

    cluster.runtime().submit(0, 0, [&] {
        cluster.replica(0).rm()->proposeAddition(3);
    });
    cluster.runFor(50_ms);
    ASSERT_TRUE(cluster.replica(0).hermes()->view().isLive(3));

    cluster.runtime().submit(3, 0, [&] {
        cluster.replica(3).hermes()->startShadowSync(2);
    });
    cluster.runFor(100_ms);
    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    EXPECT_EQ(cluster.readSync(3, 7, 50_ms).value_or("?"), "pre-join");
    // And the grown ensemble still commits writes (now needing 4 ACKs).
    ASSERT_TRUE(cluster.writeSync(3, 1000, "from-the-new-node"));
    EXPECT_EQ(cluster.readSync(0, 1000).value_or("?"), "from-the-new-node");
}

TEST(HermesJoin, WorkloadDuringJoinStaysLinearizable)
{
    ClusterConfig config = joinConfig(4, 3);
    SimCluster cluster(config);
    cluster.start();

    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 16;
    driver_config.workload.writeRatio = 0.4;
    driver_config.sessionsPerNode = 3;
    driver_config.warmup = 0;
    driver_config.measure = 30_ms;
    driver_config.recordHistory = true;
    driver_config.quiesceAfter = 100_ms;

    // Mid-run: extend the view and start the sync.
    cluster.runtime().events().scheduleAt(10_ms, [&cluster] {
        membership::MembershipView extended{2, {0, 1, 2, 3}};
        for (NodeId n = 0; n < 4; ++n) {
            cluster.runtime().submit(n, 0, [&cluster, n, extended] {
                cluster.replica(n).injectView(extended);
            });
        }
        cluster.runtime().submit(3, 0, [&cluster] {
            cluster.replica(3).hermes()->startShadowSync(0);
        });
    });

    app::LoadDriver driver(cluster, driver_config);
    app::DriverResult result = driver.run();

    EXPECT_FALSE(cluster.replica(3).hermes()->isShadow());
    app::LinReport report = app::checkHistory(result.history);
    EXPECT_TRUE(report.ok()) << report.detail;
    for (Key key = 0; key < 16; ++key)
        EXPECT_TRUE(cluster.converged(key)) << "key " << key;
}

} // namespace
} // namespace hermes
