#include "sim/network.hh"

#include "common/logging.hh"

namespace hermes::sim
{

SimNetwork::SimNetwork(EventQueue &events, const CostModel &cost,
                       size_t nodes, uint64_t seed)
    : events_(events), cost_(cost), rng_(seed), nodeDown_(nodes, false),
      dropsByType_(256, 0)
{
}

size_t
groupWireSize(const Group &group)
{
    if (group.size() == 1)
        return group.front()->wireSize();
    size_t bytes = net::kEnvelopeBytes + 7 + 2;
    for (const net::MessagePtr &msg : group)
        bytes += 4 + net::kEnvelopeBytes + msg->payloadSize();
    return bytes;
}

void
SimNetwork::countDrop(const Group &group)
{
    // The coverage consumer cares which *protocol* messages died.
    for (const net::MessagePtr &msg : group)
        ++dropsByType_[static_cast<size_t>(msg->type())];
}

void
SimNetwork::setPartition(const std::vector<int> &group_of_node)
{
    partitionGroups_ = group_of_node;
}

void
SimNetwork::setNodeDown(NodeId node, bool down)
{
    hermes_assert(node < nodeDown_.size());
    nodeDown_[node] = down;
}

bool
SimNetwork::reachable(NodeId src, NodeId dst) const
{
    if (src >= nodeDown_.size() || dst >= nodeDown_.size())
        return false;
    if (nodeDown_[src] || nodeDown_[dst])
        return false;
    if (!partitionGroups_.empty()
            && partitionGroups_[src] != partitionGroups_[dst])
        return false;
    return true;
}

void
SimNetwork::scheduleDelivery(NodeId src, NodeId dst, Group group,
                             TimeNs depart)
{
    DurationNs delay = cost_.netDelay(rng_, groupWireSize(group));
    if (spikeProb_ > 0.0 && rng_.nextBool(spikeProb_)) {
        delay += static_cast<DurationNs>(
            rng_.nextExponential(static_cast<double>(spikeMeanNs_)));
    }
    events_.scheduleAt(depart + delay, [this, src, dst,
                                        group = std::move(group)]() mutable {
        // Re-check reachability at arrival: a node that crashed or got
        // partitioned while the group was in flight never hears it.
        if (reachable(src, dst)) {
            ++delivered_;
            deliver_(dst, std::move(group));
        } else {
            ++dropped_;
            countDrop(group);
        }
    });
}

void
SimNetwork::send(NodeId src, NodeId dst, Group group, TimeNs depart)
{
    hermes_assert(deliver_ != nullptr);
    hermes_assert(!group.empty() && group.front()->src == src);
    ++sent_;
    sentBytes_ += groupWireSize(group);

    if (dropFilter_) {
        // Targeted fault injection sees *protocol* messages: a test
        // dropping "the first INV to node 2" keeps working when that INV
        // shares a delivery. The survivors travel on as the group.
        size_t kept = 0;
        for (net::MessagePtr &msg : group) {
            if (dropFilter_(src, dst, msg)) {
                ++dropped_;
                ++dropsByType_[static_cast<size_t>(msg->type())];
            } else {
                group[kept++] = std::move(msg);
            }
        }
        if (kept == 0)
            return;
        group.resize(kept);
    }
    if (!reachable(src, dst)) {
        ++dropped_;
        countDrop(group);
        return;
    }
    if (lossProb_ > 0.0 && rng_.nextBool(lossProb_)) {
        ++dropped_;
        countDrop(group);
        return;
    }
    if (dupProb_ == 0.0) {
        scheduleDelivery(src, dst, std::move(group), depart);
        return;
    }
    scheduleDelivery(src, dst, group, depart);
    if (rng_.nextBool(dupProb_)) {
        ++duplicated_;
        scheduleDelivery(src, dst, std::move(group), depart);
    }
}

} // namespace hermes::sim
