/**
 * @file
 * LockstepReplica: a virtually-synchronous, lock-step total-order
 * broadcast protocol standing in for Derecho in the Figure 8 comparison
 * (paper §6.5).
 *
 * The paper attributes Derecho's gap to Hermes to two properties: its
 * lock-step delivery and its totally ordered (not inter-key concurrent)
 * writes. This protocol models exactly those properties over our shared
 * substrate: a sequencer batches submitted updates into numbered rounds;
 * a round is broadcast, every member acknowledges it to every member, and
 * it is *delivered* (applied, in total order) only when a node holds all
 * acknowledgments — virtual synchrony's stability condition. The
 * sequencer opens round r+1 only after delivering round r: lock-step.
 *
 * Reads are local and sequentially consistent, like ZAB's.
 */

#ifndef HERMES_BASELINES_LOCKSTEP_REPLICA_HH
#define HERMES_BASELINES_LOCKSTEP_REPLICA_HH

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "membership/view.hh"
#include "net/env.hh"
#include "net/message.hh"
#include "store/kvs.hh"

namespace hermes::lockstep
{

/** One update travelling through the total order. */
struct Entry
{
    Key key = 0;
    ValueRef value;
    NodeId origin = kInvalidNode;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, value, origin, reqId); }
};

/** Client update submitted to the sequencer. */
struct SubmitMsg : net::WireMsg<SubmitMsg, net::MsgType::LockstepSubmit>
{
    Entry entry;

    template <typename Ar>
    void wire(Ar &ar) { ar(entry); }
};

/** The sequencer's ordered round broadcast. */
struct RoundMsg : net::WireMsg<RoundMsg, net::MsgType::LockstepRound>
{
    uint64_t round = 0;
    std::vector<Entry> entries;

    template <typename Ar>
    void wire(Ar &ar) { ar(round, net::counted<uint32_t>(entries)); }
};

/** All-to-all round receipt acknowledgment (the stability vote). */
struct RoundAckMsg : net::WireMsg<RoundAckMsg, net::MsgType::LockstepAck>
{
    uint64_t round = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(round); }
};

/** Register the lockstep message types (idempotent). */
void registerLockstepCodecs();

/** Tunables. */
struct LockstepConfig
{
    /**
     * Maximum updates batched into one round. Derecho amortizes its
     * ordering cost over batches; the cap bounds how much the lock-step
     * can hide behind batching.
     */
    size_t roundBatchCap = 8;

    /**
     * Sequencer CPU per round (the SST scan / ordering predicate
     * evaluation Derecho performs each delivery cycle). Paid once per
     * round regardless of batch size.
     */
    DurationNs roundOverheadNs = 0;
};

/** Operation counters exposed to benchmarks and tests. */
struct LockstepStats
{
    uint64_t readsCompleted = 0;
    uint64_t writesCommitted = 0;
    uint64_t roundsDelivered = 0;
    uint64_t entriesDelivered = 0;
};

/** One lockstep replica. The view's lowest live id is the sequencer. */
class LockstepReplica : public net::Node
{
  public:
    using ReadCallback = std::function<void(const Value &)>;
    using WriteCallback = std::function<void()>;

    LockstepReplica(net::Env &env, store::KvStore &store,
                    membership::MembershipView initial,
                    LockstepConfig config = {});

    /** Feed an m-update. */
    void onViewChange(const membership::MembershipView &view);

    // ---- net::Node ----
    void onMessage(const net::MessagePtr &msg) override;

    // ---- Client API ----
    /** Local sequentially-consistent read. */
    void read(Key key, ReadCallback cb);

    /** Totally ordered write; cb fires when its round is delivered here. */
    void write(Key key, ValueRef value, WriteCallback cb);

    // ---- Introspection ----
    const LockstepStats &stats() const { return stats_; }
    NodeId sequencer() const { return view_.live.front(); }
    bool isSequencer() const { return env_.self() == sequencer(); }

  private:
    struct PendingRound
    {
        std::vector<Entry> entries;
        NodeSet acked;
        bool haveEntries = false;
    };

    void submitToSequencer(Entry entry);
    void maybeStartRound();
    void handleRound(uint64_t round, std::vector<Entry> entries);
    void recordRoundAck(uint64_t round, NodeId from);
    void tryDeliver();

    void onSubmit(const SubmitMsg &msg);
    void onRound(const RoundMsg &msg);
    void onRoundAck(const RoundAckMsg &msg);

    net::Env &env_;
    store::KvStore &store_;
    membership::MembershipView view_;
    LockstepConfig config_;
    LockstepStats stats_;

    std::deque<Entry> submitQueue_;              ///< sequencer only
    bool roundInFlight_ = false;                 ///< sequencer lock-step
    uint64_t nextRound_ = 0;                     ///< sequencer only
    uint64_t lastDelivered_ = 0;
    std::map<uint64_t, PendingRound> rounds_;
    std::unordered_map<uint64_t, WriteCallback> clientOps_;
    uint64_t nextReqId_ = 1;
};

} // namespace hermes::lockstep

#endif // HERMES_BASELINES_LOCKSTEP_REPLICA_HH
