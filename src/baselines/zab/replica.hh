/**
 * @file
 * ZabReplica: our from-scratch implementation of the ZAB atomic-broadcast
 * protocol (paper §5.1.1, evaluated as rZAB), over the shared KVS,
 * transport and cost model.
 *
 * One node (the view's lowest id) is the leader. Clients can write at any
 * node, which forwards to the leader; the leader serializes ALL writes
 * into a single zxid order, broadcasts proposals, commits each on a
 * majority of ACKs *in order*, and broadcasts commits. Every replica
 * applies committed entries in zxid order. Reads are served locally and
 * are sequentially consistent, not linearizable — the paper evaluates
 * this (favourable to ZAB) configuration, and so do we; the session-order
 * read stall ZAB requires is enforced by the workload driver via
 * ProtocolTraits::readsWaitForSessionWrites.
 *
 * Benchmarks give rZAB the multicast-offload cost model, mirroring the
 * paper's use of RDMA multicast for the leader's asymmetric traffic.
 */

#ifndef HERMES_BASELINES_ZAB_REPLICA_HH
#define HERMES_BASELINES_ZAB_REPLICA_HH

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

#include "membership/view.hh"
#include "net/env.hh"
#include "net/message.hh"
#include "store/kvs.hh"

namespace hermes::zab
{

/** Client write forwarded from a follower to the leader. */
struct ForwardMsg : net::WireMsg<ForwardMsg, net::MsgType::ZabForward>
{
    Key key = 0;
    ValueRef value;
    NodeId origin = kInvalidNode;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, value, origin, reqId); }
};

/** Leader proposal carrying the zxid-ordered write. */
struct ProposeMsg : net::WireMsg<ProposeMsg, net::MsgType::ZabPropose>
{
    uint64_t zxid = 0;
    Key key = 0;
    ValueRef value;
    NodeId origin = kInvalidNode;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(zxid, key, value, origin, reqId); }
};

/** Follower acknowledgment of a proposal. */
struct AckMsg : net::WireMsg<AckMsg, net::MsgType::ZabAck>
{
    uint64_t zxid = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(zxid); }
};

/** Leader commit announcement: everything up to zxid is committed. */
struct CommitMsg : net::WireMsg<CommitMsg, net::MsgType::ZabCommit>
{
    uint64_t zxid = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(zxid); }
};

/** Register the ZAB message types (idempotent). */
void registerZabCodecs();

/** Operation counters exposed to benchmarks and tests. */
struct ZabStats
{
    uint64_t readsCompleted = 0;
    uint64_t writesCommitted = 0;   ///< client writes completed at origin
    uint64_t proposalsSent = 0;     ///< leader-side serialization load
    uint64_t entriesApplied = 0;
};

/** One ZAB replica. The view's lowest live id is the leader. */
class ZabReplica : public net::Node
{
  public:
    using ReadCallback = std::function<void(const Value &)>;
    using WriteCallback = std::function<void()>;

    ZabReplica(net::Env &env, store::KvStore &store,
               membership::MembershipView initial);

    /** Feed an m-update (leader may move; uncommitted tail re-proposed). */
    void onViewChange(const membership::MembershipView &view);

    // ---- net::Node ----
    void onMessage(const net::MessagePtr &msg) override;

    // ---- Client API ----
    /** Local sequentially-consistent read. */
    void read(Key key, ReadCallback cb);

    /** Write serialized through the leader; cb fires at local apply. */
    void write(Key key, ValueRef value, WriteCallback cb);

    // ---- Introspection ----
    const ZabStats &stats() const { return stats_; }
    NodeId leader() const { return view_.live.front(); }
    bool isLeader() const { return env_.self() == leader(); }
    uint64_t lastApplied() const { return lastApplied_; }

  private:
    struct LogEntry
    {
        Key key = 0;
        ValueRef value;
        NodeId origin = kInvalidNode;
        uint64_t reqId = 0;
    };

    struct Proposal
    {
        NodeSet acks;
    };

    /**
     * Hand a write to the leader's ordering stage. Real ZAB serializes
     * every proposal through the leader's single-threaded request
     * processor pipeline; we model that stage explicitly as a serial
     * resource with opportunistic batching (fixed cost per batch plus a
     * small per-entry cost), which is what caps ZAB's write throughput
     * and balloons its write latency under load — the effect behind the
     * paper's Figure 5/6 rZAB curves.
     */
    void propose(Key key, ValueRef value, NodeId origin, uint64_t req_id);
    void pumpSequencer();
    void broadcastProposal(LogEntry entry);
    void advanceCommit();
    void applyUpTo(uint64_t commit_bound);

    void onForward(const ForwardMsg &msg);
    void onPropose(const ProposeMsg &msg);
    void onAck(const AckMsg &msg);
    void onCommit(const CommitMsg &msg);

    net::Env &env_;
    store::KvStore &store_;
    membership::MembershipView view_;
    ZabStats stats_;

    std::map<uint64_t, LogEntry> log_;      ///< zxid -> entry (ordered)
    std::unordered_map<uint64_t, Proposal> proposals_; ///< leader only

    /** The serialized ordering stage (leader only). */
    std::deque<LogEntry> ingress_;
    bool sequencerBusy_ = false;
    static constexpr DurationNs kSeqBatchFixedNs = 550;
    static constexpr DurationNs kSeqPerEntryNs = 25;
    static constexpr size_t kSeqBatchCap = 64;
    std::unordered_map<uint64_t, WriteCallback> clientOps_;
    uint64_t nextZxid_ = 0;                 ///< leader only
    uint64_t committedUpTo_ = 0;            ///< leader's in-order bound
    uint64_t commitBound_ = 0;              ///< highest commit heard
    uint64_t lastApplied_ = 0;
    uint64_t nextReqId_ = 1;
};

} // namespace hermes::zab

#endif // HERMES_BASELINES_ZAB_REPLICA_HH
