/**
 * @file
 * HermesReplica: the complete Hermes protocol engine of one replica
 * (paper §3) — the primary contribution this library reproduces.
 *
 * Every replica is simultaneously:
 *  - a *reader*: linearizable reads complete locally iff the key is Valid;
 *  - a *coordinator*: any replica can initiate a write or RMW, broadcast
 *    INVs, gather ACKs from all live replicas, and commit with a VAL
 *    broadcast (decentralized, inter-key concurrent, 1 RTT exposed);
 *  - a *follower*: INVs invalidate the key, carry the new value and a
 *    per-key Lamport timestamp that lets every node agree on a single
 *    global write order, so concurrent writes resolve in place and never
 *    abort;
 *  - a *healer*: a request stalled on an Invalid key past the message-loss
 *    timeout replays the interrupted write from the INV-propagated value
 *    with its original timestamp (§3.4), which is what makes node and
 *    message failures survivable without a leader.
 *
 * RMWs (§3.6) are conflicting: they bump the version by one where writes
 * bump by two, so a racing write always outranks and safely aborts them,
 * and among racing RMWs exactly the highest cid commits.
 *
 * The class is single-threaded within its execution context (a simulated
 * node's workers or a TCP event loop); it owns no threads and no clock —
 * everything flows through the injected net::Env.
 */

#ifndef HERMES_HERMES_REPLICA_HH
#define HERMES_HERMES_REPLICA_HH

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/types.hh"
#include "hermes/config.hh"
#include "hermes/key_state.hh"
#include "hermes/messages.hh"
#include "membership/view.hh"
#include "net/env.hh"
#include "store/kvs.hh"

namespace hermes::proto
{

/** Operation counters exposed to benchmarks and tests. */
struct HermesStats
{
    uint64_t readsCompleted = 0;
    uint64_t readsStalled = 0;      ///< reads that found a non-Valid key
    uint64_t writesIssued = 0;
    uint64_t writesCommitted = 0;
    uint64_t rmwsIssued = 0;
    uint64_t rmwsCommitted = 0;
    uint64_t rmwsAborted = 0;       ///< protocol aborts (then retried)
    uint64_t casFailedCompare = 0;  ///< CAS observed value != expected
    uint64_t replaysStarted = 0;
    uint64_t invRetransmits = 0;
    uint64_t valsSkipped = 0;       ///< O1/O3 suppressed VAL broadcasts
    uint64_t staleEpochDropped = 0;
};

/**
 * One Hermes replica. Construct with the node's Env, its local KVS shard
 * replica and the initial membership view; wire onViewChange() to the RM
 * agent.
 */
class HermesReplica : public net::Node
{
  public:
    using ReadCallback = std::function<void(const Value &)>;
    using WriteCallback = std::function<void()>;
    /** CAS completion: (applied, value observed at the decision point). */
    using CasCallback = std::function<void(bool, const Value &)>;

    HermesReplica(net::Env &env, store::KvStore &store,
                  membership::MembershipView initial, HermesConfig config);

    /**
     * Inject the RM lease check (paper §2.4: a replica serves requests
     * only while operational). Defaults to always-operational for tests
     * that run without an RM agent.
     */
    void
    setOperationalCheck(std::function<bool()> fn)
    {
        operational_ = std::move(fn);
    }

    /** Feed an m-update from the RM agent (§3.4 reconfiguration). */
    void onViewChange(const membership::MembershipView &view);

    // ---- net::Node ----
    void onMessage(const net::MessagePtr &msg) override;

    // ---- Client API (call from this node's execution context) ----

    /**
     * Linearizable read: completes locally (immediately) when the key is
     * Valid, otherwise stalls until the in-progress write resolves.
     * Absent keys read as the empty value.
     */
    void read(Key key, ReadCallback cb);

    /**
     * Linearizable write: invalidate-all, gather ACKs, validate. The
     * callback fires at commit (all live replicas invalidated), i.e. after
     * one exposed round-trip in the failure-free case. Writes never abort.
     */
    void write(Key key, ValueRef value, WriteCallback cb);

    /**
     * Linearizable compare-and-swap built on Hermes RMWs. Fails fast (with
     * the observed value) when the current value differs from @p expected;
     * protocol-level RMW aborts are retried internally until the CAS
     * commits or definitively fails, so the callback reports the final
     * linearized outcome.
     */
    void cas(Key key, ValueRef expected, ValueRef desired, CasCallback cb);

    /**
     * §3.4 Recovery: stream the datastore from @p source while acting as
     * a *shadow replica* — a follower for all writes that serves no
     * client requests. Replicas constructed outside the initial live set
     * start in shadow mode automatically; call this after the membership
     * has been reliably updated to include this node. Once the final
     * chunk is applied the replica turns operational.
     */
    void startShadowSync(NodeId source);

    /** True while this replica is a catching-up shadow (§3.4). */
    bool isShadow() const { return shadow_; }

    /**
     * The store's WAL reports its records durable up to @p seq: each
     * coordinated update whose own record that covers counts it as one
     * of its commit's ACKs. Call from this node's execution context.
     */
    void onLogDurable(uint64_t seq);

    // ---- Introspection ----
    const HermesStats &stats() const { return stats_; }
    const membership::MembershipView &view() const { return view_; }
    KeyState keyState(Key key) const;
    Timestamp keyTimestamp(Key key) const;
    size_t pendingUpdates() const { return pending_.size(); }
    size_t stalledRequests() const { return stalledCount_; }
    bool halted() const { return halted_; }
    /** Shadows this replica is streaming its store to (§3.4). */
    size_t transfersInProgress() const { return transfers_.size(); }

  private:
    /** A coordinated update in flight (write, RMW, or replay). */
    struct Pending
    {
        Timestamp ts;
        ValueRef value;
        bool rmw = false;
        bool replay = false;
        NodeSet acksNeeded;
        WriteCallback writeCb;
        CasCallback casCb;
        ValueRef casExpected; ///< for internal retry after an RMW abort
        net::TimerId mltTimer = 0;
        /** The coordinator's own record is not durable yet (WAL only). */
        bool awaitingLog = false;
    };

    /** An update waiting for its coordinator's own record. */
    struct LogWait
    {
        uint64_t seq;
        Key key;
        Timestamp ts;
    };

    /** A client request waiting for its key to become Valid. */
    struct Stalled
    {
        enum class Kind { Read, Write, Cas } kind;
        ValueRef value;      ///< write value / CAS desired
        ValueRef expected;   ///< CAS expected
        ReadCallback readCb;
        WriteCallback writeCb;
        CasCallback casCb;
    };

    // Message handlers.
    void onInv(const InvMsg &msg);
    void onAck(const AckMsg &msg);
    void onVal(const ValMsg &msg);
    void onStateReq(const StateReqMsg &msg);
    void onStateChunk(const StateChunkMsg &msg);

    // Shadow-replica state transfer.
    void requestNextChunk();

    // LSC-free read validation (§8).
    void onEpochCheck(const EpochCheckMsg &msg);
    void onEpochCheckAck(const EpochCheckAckMsg &msg);
    void speculateRead(Value value, ReadCallback cb);
    void startEpochCheck();

    // Coordinator machinery.
    uint32_t pickCid();
    void issueUpdate(Key key, ValueRef value, bool rmw, WriteCallback wcb,
                     CasCallback ccb, ValueRef cas_expected);
    void registerPending(Key key, Pending pending);
    void broadcastInv(Key key, const Pending &pending);
    void tryCommit(Key key);
    void commit(Key key, Pending pending);
    void abortRmw(Key key, const char *reason);
    void armMlt(Key key);
    void onMltExpired(Key key, Timestamp ts);

    // Follower/healer machinery.
    void startReplay(Key key);
    void armReplayTimer(Key key);
    void onReplayTimer(Key key);
    void recordAck(Key key, Timestamp ts, NodeId from);
    NodeId physicalOf(uint32_t cid) const;

    /** A NoLogWait scope on env_, open unless O3 is on (see "Which
     *  frames wait for the log" in replica.cc). */
    net::NoLogWait
    unloggedFrames()
    {
        return net::NoLogWait(env_, !config_.ackBroadcast);
    }

    // Stall management.
    /** Complete a read of a Valid (or absent) key. */
    void serveRead(const Value &value, ReadCallback cb);
    void stallRequest(Key key, Stalled req);
    void drainStalled(Key key);
    bool admitSerial(Stalled &req, Key key);
    void pumpSerialQueue();

    bool
    isOperational() const
    {
        return !shadow_ && (!operational_ || operational_());
    }

    net::Env &env_;
    store::KvStore &store_;
    membership::MembershipView view_;
    HermesConfig config_;
    std::function<bool()> operational_;
    HermesStats stats_;
    bool halted_ = false;

    std::unordered_map<Key, Pending> pending_;
    std::deque<LogWait> logWaits_; ///< ascending seq
    std::unordered_map<Key, std::deque<Stalled>> stalled_;
    size_t stalledCount_ = 0;
    std::unordered_map<Key, net::TimerId> replayTimers_;

    /** O3 bookkeeping: ACKs seen per key for the highest timestamp. */
    struct AckTrack
    {
        Timestamp ts;
        NodeSet acked;
    };
    std::unordered_map<Key, AckTrack> ackTrack_;

    /** Ablation (interKeyConcurrency = false): serialized update queue. */
    std::deque<std::pair<Key, Stalled>> serialQueue_;

    // ---- LSC-free reads (§8) ----
    /** One validated-on-majority speculative read. */
    struct SpeculativeRead
    {
        Value value;
        ReadCallback cb;
    };
    std::vector<SpeculativeRead> specInFlight_;  ///< under checkNonce_
    std::vector<SpeculativeRead> specNextBatch_; ///< awaiting next probe
    uint64_t checkNonce_ = 0;
    NodeSet checkAckedBy_;
    bool checkInFlight_ = false;

    // ---- Shadow-replica state transfer (§3.4) ----
    bool shadow_ = false;
    NodeId shadowSource_ = kInvalidNode;
    uint64_t shadowOffset_ = 0;
    /**
     * Source side of one shadow's transfer: where the next chunk starts
     * and its offset (entries served before it). Holds no value: every
     * chunk is read from the live store.
     */
    struct ShadowTransfer
    {
        uint64_t nextOffset = 0;
        store::ScanCursor next;
    };
    /** Transfers being streamed, keyed by requesting shadow. */
    std::unordered_map<NodeId, ShadowTransfer> transfers_;
    static constexpr size_t kChunkEntries = 64;
};

} // namespace hermes::proto

#endif // HERMES_HERMES_REPLICA_HH
