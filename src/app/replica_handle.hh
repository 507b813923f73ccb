/**
 * @file
 * ReplicaHandle: the uniform client-facing assembly of one replica —
 * protocol engine + local KVS shard + (optionally) the RM agent — behind
 * which the workload driver, the tests and the benches treat all four
 * protocols identically.
 *
 * The handle is also the net::Node the transport delivers to: it routes
 * RM traffic to the RmNode and everything else to the protocol engine,
 * and wires RM m-updates into the protocol's onViewChange.
 */

#ifndef HERMES_APP_REPLICA_HANDLE_HH
#define HERMES_APP_REPLICA_HANDLE_HH

#include <functional>
#include <memory>
#include <optional>

#include "app/protocols.hh"
#include "baselines/craq/replica.hh"
#include "baselines/lockstep/replica.hh"
#include "baselines/zab/replica.hh"
#include "hermes/replica.hh"
#include "membership/rm_node.hh"
#include "net/env.hh"
#include "store/kvs.hh"
#include "store/wal.hh"

namespace hermes::net
{
/** Counters only, held for bench_e2e/bench_e2e.cc's net.batcher.* reads
 *  until ROADMAP item 1 drops them: no replica has a Batcher (the sim
 *  runtime and the TCP loop coalesce per peer), so batcher() is null. */
struct Batcher
{
    struct Stats
    {
        uint64_t staged = 0, batchesFlushed = 0, messagesBatched = 0;
    };
    Stats stats() const { return {}; }
};
} // namespace hermes::net

namespace hermes::app
{

/** Construction options shared by all protocol handles. */
struct ReplicaOptions
{
    size_t storeCapacity = 1 << 17;
    /**
     * The largest value this replica's store accepts (store::KvStore's
     * `max_value_size`). It is not the memory each key takes: an entry's
     * room follows the values it holds.
     */
    size_t maxValueSize = 64;
    bool enableRm = false;               ///< run the RM agent (heartbeats)
    membership::RmConfig rmConfig{};
    proto::HermesConfig hermesConfig{};  ///< protocol == Hermes only
    lockstep::LockstepConfig lockstepConfig{}; ///< protocol == Lockstep
    /**
     * Write-ahead log (store/wal.hh). An empty path = no durability (the
     * default, matching the paper's in-memory Hermes). With a path set,
     * the handle opens the log at construction, replays surviving
     * records into the KVS as the scan streams them, before the engine
     * serves anything (Hermes: restored Invalid, healed via replay/state
     * transfer; the baselines only append, for durability-cost sweeps,
     * and do not replay), and group-commits at the Env's poll-boundary
     * flush (Env::attachLog: on a writer thread over TCP), so a record
     * is durable before any frame staged after it leaves the node,
     * unless the protocol marked the frame NoLogWait.
     */
    store::WalConfig wal{};
    /**
     * Elastic-sharding recovery filter: when set, WAL records whose key
     * this predicate rejects are skipped during the WAL replay. A replica
     * restarting after a migration cutover holds log records for slots
     * its shard no longer owns; replaying them would resurrect ownership
     * the slot map took away, so the deployment wires this to "is the
     * key's slot still ours under the current map".
     */
    std::function<bool(Key)> walRecoveryOwned;
};

/**
 * One assembled replica. Create via makeReplica(); drive via the client
 * API; deliver transport messages via the net::Node interface.
 */
class ReplicaHandle : public net::Node
{
  public:
    using ReadCallback = std::function<void(const Value &)>;
    using WriteCallback = std::function<void()>;
    using CasCallback = std::function<void(bool, const Value &)>;

    ~ReplicaHandle() override;

    // ---- Client API ----
    virtual void read(Key key, ReadCallback cb) = 0;
    virtual void write(Key key, ValueRef value, WriteCallback cb) = 0;

    /** CAS RMW; only protocols with traits().supportsRmw implement it. */
    virtual void
    cas(Key, ValueRef, ValueRef, CasCallback)
    {
        panic("%s does not support RMWs", traits().name);
    }

    // ---- Introspection ----
    virtual const ProtocolTraits &traits() const = 0;
    store::KvStore &kvStore() { return store_; }
    membership::RmNode *rm() { return rm_.get(); }

    /** Push an m-update directly (tests without a live RM agent). */
    virtual void injectView(const membership::MembershipView &view) = 0;

    /** The protocol engines, for protocol-specific test introspection. */
    virtual proto::HermesReplica *hermes() { return nullptr; }
    virtual craq::CraqReplica *craq() { return nullptr; }
    virtual zab::ZabReplica *zab() { return nullptr; }
    virtual lockstep::LockstepReplica *lockstep() { return nullptr; }

    /** Always nullptr: see net::Batcher above. */
    const net::Batcher *batcher() const { return nullptr; }

    /** The write-ahead log; nullptr when durability is off. */
    store::Wal *wal() { return wal_.get(); }

    /**
     * Install one slot-migration entry directly into the local KVS (and
     * WAL, when durable): the destination-side apply of the snapshot /
     * catch-up-delta transfer. Same discipline as a shadow-sync state
     * chunk — newest timestamp wins, and the entry lands Valid because
     * the source observed exactly this version committed. Idempotent
     * (re-sending a delta is a no-op), and safe against writes racing
     * the transfer on the destination: a newer local version is never
     * regressed. Must run in the replica's loop/job context, like every
     * other store mutation. @return whether the entry was adopted.
     */
    bool applyMigratedEntry(Key key, const ValueRef &value, Timestamp ts,
                            uint8_t flags);

  protected:
    /**
     * With options.wal set, opens the log; @p wal_restore_state, when
     * set, also replays every surviving record into the KVS with that
     * protocol state byte (see openAndReplayWal). Unset = the log is
     * only appended to: the baselines have no crash-restart
     * choreography, so replaying state they cannot honor is wrong.
     */
    ReplicaHandle(net::Env &env, const ReplicaOptions &options,
                  membership::MembershipView initial,
                  std::optional<uint8_t> wal_restore_state);

    /** Route one message to RM or the protocol engine. */
    bool routeRm(const net::MessagePtr &msg);

    net::Env &env_;
    store::KvStore store_;
    std::unique_ptr<store::Wal> wal_;
    std::unique_ptr<membership::RmNode> rm_;

  private:
    /**
     * Open the WAL and replay each record the scan streams into the KVS
     * with protocol state byte @p restore_state, newest timestamp wins,
     * skipping keys options.walRecoveryOwned rejects. One pass over the
     * file; memory is the scan's read buffer plus one record. Runs with
     * a per-key recovery lock table armed, so a concurrently delivered
     * INV/write for the same key serializes against the replay instead
     * of interleaving with it.
     */
    void openAndReplayWal(const ReplicaOptions &options,
                          uint8_t restore_state);
};

/** Build the replica assembly for @p protocol on @p env. */
std::unique_ptr<ReplicaHandle>
makeReplica(Protocol protocol, net::Env &env,
            membership::MembershipView initial,
            const ReplicaOptions &options);

/**
 * The durable wiring of replica @p replica of group @p shard, one for the
 * sim and TCP: with options.wal.path naming a directory, the replica logs
 * to `<dir>/shard<s>/replica<r>.wal` (created on demand) and stamps
 * @p shard into its records. Its recovery keeps the records whose key
 * @p ownerOf gives @p shard at REPLAY time, not at append time: a restart
 * straddling a cutover must not resurrect slots the shard gave away.
 * Without a path, @p options come back unchanged.
 */
ReplicaOptions durableOptions(ReplicaOptions options, uint32_t shard,
                              size_t replica,
                              std::function<uint32_t(Key)> ownerOf);

/** One step a host runs on one replica: inject `view`; else start the
 *  shadow sync from `syncSource`; else stamp its WAL with slot-map
 *  epoch `mapEpoch`. */
struct ReplicaJob
{
    std::optional<membership::MembershipView> view;
    NodeId syncSource = kInvalidNode;
    uint32_t mapEpoch = 0;

    void run(ReplicaHandle &replica) const;
};

/** The runtime (sim or TCP) under restartFromWal() and stampMapEpoch(). */
class ReplicaHost
{
  public:
    virtual ~ReplicaHost() = default;
    virtual bool alive(NodeId id) = 0;
    virtual void crash(NodeId id) = 0;
    /** Run @p job on @p id 's loop, after every job queued there before
     *  it (a host may run it before returning). A replica that is down
     *  has no loop: the host drops the job or runs it at once. */
    virtual void queueJob(NodeId id, ReplicaJob job) = 0;
    virtual Epoch viewEpoch(NodeId id) = 0;
    /** Epoch of the live slot map. */
    virtual uint32_t mapEpoch() = 0;
    /** Replace @p id 's handle with one rebuilt from its WAL under
     *  @p view, and start it. */
    virtual void rebuild(NodeId id,
                         const membership::MembershipView &view) = 0;
};

/**
 * §3.4 crash-restart of Hermes replica @p id of @p group (ids
 * ascending), for both runtimes. Crash @p id if alive; the lowest-id
 * live survivor stands in for the RM's proposer and is the transfer
 * source. The survivors shrink to epoch+1 without @p id (commits need
 * every live member's ACK); @p id is rebuilt from its WAL as a shadow
 * (records restore Invalid), re-admitted at epoch+2, and only then
 * syncs: §3.4's m-update-before-stream order. Before it serves, its WAL
 * is stamped with the live slot-map epoch, which a new Wal does not
 * know. A whole-group outage has no survivor; restart it cold over the
 * same WAL instead.
 */
void restartFromWal(ReplicaHost &host, const NodeSet &group, NodeId id);

/**
 * A slot-map install's one path to the WALs: queue a stamp of @p epoch
 * on replicas [0, @p count) of @p host, so each replica's records
 * appended after its earlier queued jobs carry the new ownership
 * generation (crash-restart forensics; recovery itself filters by the
 * live map).
 */
void stampMapEpoch(ReplicaHost &host, size_t count, uint32_t epoch);

} // namespace hermes::app

#endif // HERMES_APP_REPLICA_HANDLE_HH
