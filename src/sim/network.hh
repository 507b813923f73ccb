/**
 * @file
 * Simulated datacenter network with the paper's §2.4 fault model:
 * message reordering, duplication, loss, and link failures that may
 * partition the replica group.
 *
 * The network is a full mesh. Every message samples an independent delay
 * (base + exponential jitter + transmission time), which already yields
 * natural reordering on the fast path; explicit knobs add loss, duplication
 * and heavy-tail delays, and a partition matrix silently discards traffic
 * between separated groups, exactly how a link failure manifests to the
 * protocols.
 */

#ifndef HERMES_SIM_NETWORK_HH
#define HERMES_SIM_NETWORK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "net/message.hh"
#include "sim/cost_model.hh"
#include "sim/event_queue.hh"

namespace hermes::sim
{

/** Per-message-kind drop predicate for targeted fault injection in tests. */
using DropFilter =
    std::function<bool(NodeId src, NodeId dst, const net::MessagePtr &)>;

/**
 * What one delivery carries: a lone message, or the window of messages
 * the runtime coalesced for one peer, dispatched in order in one receive
 * job. Sim-internal: no wire type, no codec.
 */
using Group = std::vector<net::MessagePtr>;

/**
 * The wire bytes one delivery of @p group is charged: a lone message's
 * own size; a coalesced group, the size of a batch envelope holding it
 * (envelope + 7-byte transport header + u16 count, then each message
 * encoded behind a u32 length), which the sim's charges are fitted to.
 */
size_t groupWireSize(const Group &group);

/**
 * Unreliable full-mesh network. Delivery hands (dst, group) to the sink
 * the runtime registers; the sink is responsible for charging receive
 * CPU.
 */
class SimNetwork
{
  public:
    /**
     * @param events shared event queue (clock)
     * @param cost   cost model for delay sampling
     * @param nodes  cluster size
     * @param seed   network-local RNG seed
     */
    SimNetwork(EventQueue &events, const CostModel &cost, size_t nodes,
               uint64_t seed);

    /** Register the delivery sink (called once by the runtime). */
    void
    setDeliverFn(std::function<void(NodeId, Group)> fn)
    {
        deliver_ = std::move(fn);
    }

    /**
     * Inject @p group from @p src to @p dst at time @p depart as one
     * delivery: one loss draw, one duplication draw and one delay sample
     * (from groupWireSize()). The drop filter sees each message alone;
     * the rest of the group travels on.
     */
    void send(NodeId src, NodeId dst, Group group, TimeNs depart);

    /** Inject one message (a group of one). */
    void
    send(NodeId src, NodeId dst, net::MessagePtr msg, TimeNs depart)
    {
        send(src, dst, Group{std::move(msg)}, depart);
    }

    // ---- Fault knobs (all default to a healthy network) ----

    /** Probability each delivery is silently dropped. */
    void setLossProbability(double p) { lossProb_ = p; }

    /** Probability a delivery happens twice (independent delays). */
    void setDuplicateProbability(double p) { dupProb_ = p; }

    /**
     * Probability a message takes a slow path with @p extra_mean mean
     * additional exponential delay — forces aggressive reordering.
     */
    void
    setDelaySpike(double p, DurationNs extra_mean)
    {
        spikeProb_ = p;
        spikeMeanNs_ = extra_mean;
    }

    /** Arbitrary drop predicate for targeted tests (checked first). */
    void setDropFilter(DropFilter filter) { dropFilter_ = std::move(filter); }

    /**
     * Partition the network: nodes with different group ids cannot
     * exchange messages. An empty vector heals the partition.
     */
    void setPartition(const std::vector<int> &group_of_node);

    /** Heal any partition. */
    void healPartition() { partitionGroups_.clear(); }

    /** Disconnect a node entirely (crashed nodes neither send nor hear). */
    void setNodeDown(NodeId node, bool down);

    // ---- Introspection for tests (counts are per delivery) ----
    uint64_t sentCount() const { return sent_; }
    uint64_t droppedCount() const { return dropped_; }
    uint64_t duplicatedCount() const { return duplicated_; }
    uint64_t deliveredCount() const { return delivered_; }
    /** Total wire bytes accepted into the fabric (for bandwidth studies). */
    uint64_t sentBytes() const { return sentBytes_; }

    /**
     * Drops broken down by message type (index = MsgType value; a group
     * dropped whole counts each of its messages) — a coverage signal for
     * the fault-schedule explorer: a schedule that first manages to kill,
     * say, a StateChunk mid-transfer has reached behavior no drop counter
     * total would reveal.
     */
    const std::vector<uint64_t> &dropsByType() const { return dropsByType_; }

  private:
    bool reachable(NodeId src, NodeId dst) const;
    void scheduleDelivery(NodeId src, NodeId dst, Group group,
                          TimeNs depart);
    void countDrop(const Group &group);

    EventQueue &events_;
    const CostModel &cost_;
    Rng rng_;
    std::function<void(NodeId, Group)> deliver_;

    double lossProb_ = 0.0;
    double dupProb_ = 0.0;
    double spikeProb_ = 0.0;
    DurationNs spikeMeanNs_ = 0;
    DropFilter dropFilter_;
    std::vector<int> partitionGroups_;
    std::vector<bool> nodeDown_;

    uint64_t sent_ = 0;
    uint64_t dropped_ = 0;
    uint64_t duplicated_ = 0;
    uint64_t delivered_ = 0;
    uint64_t sentBytes_ = 0;
    std::vector<uint64_t> dropsByType_;
};

} // namespace hermes::sim

#endif // HERMES_SIM_NETWORK_HH
