/**
 * @file
 * SimNetwork fault-knob gap-fill: exact accounting of duplication,
 * mid-run partition healing, the interaction of partition + drop-filter
 * on droppedCount, and the per-message-type drop breakdown (counting each
 * message of a coalesced group) that the fault-schedule explorer uses as
 * a coverage signal.
 */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "sim/cost_model.hh"
#include "sim/event_queue.hh"
#include "sim/network.hh"

namespace hermes::sim
{
namespace
{

/** Minimal concrete message carrying nothing but its type. */
struct ProbeMsg : net::Message
{
    explicit ProbeMsg(net::MsgType type, NodeId from) : net::Message(type)
    {
        src = from;
    }
    size_t payloadSize() const override { return 0; }
    void serializePayload(BufWriter &) const override {}
};

net::MessagePtr
probe(net::MsgType type, NodeId src)
{
    return std::make_shared<ProbeMsg>(type, src);
}

class NetworkFaults : public ::testing::Test
{
  protected:
    NetworkFaults() : net_(events_, cost_, 4, 99)
    {
        net_.setDeliverFn([this](NodeId dst, Group group) {
            std::vector<net::MsgType> types;
            for (const net::MessagePtr &msg : group)
                types.push_back(msg->type());
            deliveries_.emplace_back(dst, std::move(types));
        });
    }

    EventQueue events_;
    CostModel cost_;
    SimNetwork net_;
    /** Per delivery: destination and the types of its messages. */
    std::vector<std::pair<NodeId, std::vector<net::MsgType>>> deliveries_;
};

TEST_F(NetworkFaults, DuplicationDeliversTwiceAndCountsOnce)
{
    net_.setDuplicateProbability(1.0);
    for (int i = 0; i < 10; ++i)
        net_.send(0, 1, probe(net::MsgType::HermesInv, 0), events_.now());
    events_.runAll();

    EXPECT_EQ(net_.sentCount(), 10u);
    EXPECT_EQ(net_.duplicatedCount(), 10u);
    EXPECT_EQ(net_.deliveredCount(), 20u);
    EXPECT_EQ(deliveries_.size(), 20u);
    EXPECT_EQ(net_.droppedCount(), 0u);
}

TEST_F(NetworkFaults, HealPartitionMidRunRestoresDelivery)
{
    net_.setPartition({0, 0, 1, 1});

    // Across the cut: dropped at send time.
    net_.send(0, 2, probe(net::MsgType::HermesInv, 0), events_.now());
    // Within a side: delivered.
    net_.send(0, 1, probe(net::MsgType::HermesInv, 0), events_.now());
    events_.runAll();
    EXPECT_EQ(net_.droppedCount(), 1u);
    EXPECT_EQ(net_.deliveredCount(), 1u);

    net_.healPartition();
    net_.send(0, 2, probe(net::MsgType::HermesInv, 0), events_.now());
    events_.runAll();
    EXPECT_EQ(net_.droppedCount(), 1u);
    EXPECT_EQ(net_.deliveredCount(), 2u);
}

TEST_F(NetworkFaults, PartitionOnsetMidFlightDropsAtArrival)
{
    // The message clears the send-time reachability check, then the
    // partition lands while it is in flight: the arrival re-check must
    // drop it (a link failure severs in-flight traffic too).
    net_.send(0, 2, probe(net::MsgType::HermesVal, 0), events_.now());
    net_.setPartition({0, 0, 1, 1});
    events_.runAll();

    EXPECT_EQ(net_.deliveredCount(), 0u);
    EXPECT_EQ(net_.droppedCount(), 1u);
    EXPECT_EQ(net_.dropsByType()[static_cast<size_t>(
                  net::MsgType::HermesVal)],
              1u);
}

TEST_F(NetworkFaults, DroppedCountExactUnderPartitionPlusDropFilter)
{
    // Filter kills VALs; the partition separates {0,1} from {2,3}. Send
    // a fixed mix and account for every message exactly:
    //   INV 0->1 : delivered
    //   VAL 0->1 : filter        (filter runs before reachability)
    //   INV 0->2 : partition
    //   VAL 0->2 : filter
    //   ACK 1->0 : delivered
    net_.setDropFilter([](NodeId, NodeId, const net::MessagePtr &msg) {
        return msg->type() == net::MsgType::HermesVal;
    });
    net_.setPartition({0, 0, 1, 1});

    net_.send(0, 1, probe(net::MsgType::HermesInv, 0), events_.now());
    net_.send(0, 1, probe(net::MsgType::HermesVal, 0), events_.now());
    net_.send(0, 2, probe(net::MsgType::HermesInv, 0), events_.now());
    net_.send(0, 2, probe(net::MsgType::HermesVal, 0), events_.now());
    net_.send(1, 0, probe(net::MsgType::HermesAck, 1), events_.now());
    events_.runAll();

    EXPECT_EQ(net_.sentCount(), 5u);
    EXPECT_EQ(net_.deliveredCount(), 2u);
    EXPECT_EQ(net_.droppedCount(), 3u);

    const std::vector<uint64_t> &drops = net_.dropsByType();
    EXPECT_EQ(drops[static_cast<size_t>(net::MsgType::HermesVal)], 2u);
    EXPECT_EQ(drops[static_cast<size_t>(net::MsgType::HermesInv)], 1u);
    EXPECT_EQ(drops[static_cast<size_t>(net::MsgType::HermesAck)], 0u);
}

TEST_F(NetworkFaults, DropFilterUnwrapsBatchesAndCountsInnerTypes)
{
    // A coalesced group carrying INV + VAL + ACK with a VAL-killing
    // filter: the filter sees each message alone, the VAL dies
    // (attributed to its own type), and the rest arrive as one delivery.
    // A group filtered down to one message arrives as a plain message,
    // its delay sampled from that message's own size.
    using net::MsgType;
    Group three{probe(MsgType::HermesInv, 0), probe(MsgType::HermesVal, 0),
                probe(MsgType::HermesAck, 0)};
    Group two{probe(MsgType::HermesInv, 0), probe(MsgType::HermesVal, 0)};
    std::vector<MsgType> seen;
    net_.setDropFilter([&](NodeId, NodeId, const net::MessagePtr &msg) {
        seen.push_back(msg->type());
        return msg->type() == MsgType::HermesVal;
    });
    net_.send(0, 1, three, events_.now());
    net_.send(0, 2, two, events_.now());
    events_.runAll();

    EXPECT_EQ(seen, (std::vector<MsgType>{MsgType::HermesInv,
                                          MsgType::HermesVal,
                                          MsgType::HermesAck,
                                          MsgType::HermesInv,
                                          MsgType::HermesVal}));
    EXPECT_EQ(net_.sentCount(), 2u);
    EXPECT_EQ(net_.sentBytes(), groupWireSize(three) + groupWireSize(two))
        << "bytes are accepted into the fabric before the filter runs";
    EXPECT_EQ(net_.droppedCount(), 2u);
    EXPECT_EQ(net_.dropsByType()[static_cast<size_t>(MsgType::HermesVal)],
              2u);
    EXPECT_EQ(net_.deliveredCount(), 2u);
    ASSERT_EQ(deliveries_.size(), 2u);
    for (const auto &[dst, types] : deliveries_) {
        if (dst == 1)
            EXPECT_EQ(types, (std::vector<MsgType>{MsgType::HermesInv,
                                                   MsgType::HermesAck}));
        else
            EXPECT_EQ(types, (std::vector<MsgType>{MsgType::HermesInv}));
    }
}

TEST_F(NetworkFaults, BatchDroppedWholeAttributesEveryInnerMessage)
{
    // A whole group lost to a partition books one aggregate drop but
    // one per-type drop per protocol message it carried.
    Group group{probe(net::MsgType::HermesInv, 0),
                probe(net::MsgType::HermesInv, 0),
                probe(net::MsgType::HermesAck, 0)};

    net_.setPartition({0, 1, 1, 1});
    net_.send(0, 1, group, events_.now());
    events_.runAll();

    EXPECT_EQ(net_.sentCount(), 1u);
    EXPECT_EQ(net_.droppedCount(), 1u);
    const std::vector<uint64_t> &drops = net_.dropsByType();
    EXPECT_EQ(drops[static_cast<size_t>(net::MsgType::HermesInv)], 2u);
    EXPECT_EQ(drops[static_cast<size_t>(net::MsgType::HermesAck)], 1u);
    uint64_t total = 0;
    for (uint64_t n : drops)
        total += n;
    EXPECT_EQ(total, 3u);
}

} // namespace
} // namespace hermes::sim
