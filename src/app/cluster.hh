/**
 * @file
 * SimCluster: a fully wired simulated deployment — `shards` independent
 * replica groups of one protocol on a single SimRuntime — plus the
 * synchronous convenience API the tests and examples use to poke it.
 *
 * Sharding (the scale-out layer): the key space is partitioned by a
 * stable hash into `shards` shards, each served by its own replica group
 * with its own membership/RM state. Groups never exchange messages;
 * client operations are routed to the owning group by the SlotMap. With
 * shards == 1 the cluster degenerates to the paper's single Hermes
 * group, bit-for-bit.
 */

#ifndef HERMES_APP_CLUSTER_HH
#define HERMES_APP_CLUSTER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/migration.hh"
#include "app/replica_handle.hh"
#include "app/slot_map.hh"
#include "sim/runtime.hh"

namespace hermes::app
{

/**
 * The owner of @p key under the epoch-1 uniform slot map over
 * @p num_shards shards (SlotMap::uniform), as a pure function: what
 * workload generators and tests use to pick keys per shard. Routing
 * itself always goes through a SlotMap, which migrations change.
 * num_shards <= 1 (including 0) degenerates to shard 0.
 */
uint32_t shardOfKey(Key key, size_t num_shards);

/**
 * Node-block geometry: shard `s` of `S` is served by the contiguous
 * node-id block [s*R, (s+1)*R) for R replicas per shard. Contiguous
 * blocks keep global node ids dense (the sim indexes CPUs by id) and
 * make shard-of-node a division. Which shard owns a KEY is the
 * cluster's SlotMap's business (SimCluster::shardOf / routeNode).
 */
class ShardMap
{
  public:
    ShardMap(size_t shards, size_t replicas_per_shard);

    size_t numShards() const { return groups_.size(); }
    size_t replicasPerShard() const { return replicasPerShard_; }
    size_t totalNodes() const { return groups_.size() * replicasPerShard_; }

    /** Global node ids of @p shard 's replica group. */
    const NodeSet &nodesOf(uint32_t shard) const { return groups_.at(shard); }

    /** First node id of @p shard 's block. */
    NodeId
    baseOf(uint32_t shard) const
    {
        return static_cast<NodeId>(shard * replicasPerShard_);
    }

    /** The shard served by @p node. */
    uint32_t
    shardOfNode(NodeId node) const
    {
        return static_cast<uint32_t>(node / replicasPerShard_);
    }

  private:
    size_t replicasPerShard_;
    std::vector<NodeSet> groups_;
};

/** Everything needed to spin up a simulated deployment. */
struct ClusterConfig
{
    Protocol protocol = Protocol::Hermes;
    /** Replicas per shard group (the paper's replication degree). */
    size_t nodes = 5;
    /** Independent shard groups; total sim nodes = shards * nodes. */
    size_t shards = 1;
    /**
     * Nodes in the initial membership view of each group (0 = all).
     * Extra nodes are spares: they run but start outside the view, ready
     * to join as shadow replicas (§3.4 Recovery).
     */
    size_t initialLive = 0;
    sim::CostModel cost{};
    uint64_t seed = 1;
    ReplicaOptions replica{};
    /**
     * Directory for per-node write-ahead logs; empty = durability off
     * (the default, matching the paper's in-memory Hermes). With a
     * directory set, replica r of shard s logs to
     * `<walDir>/shard<s>/replica<r>.wal`, the layout TCP deployments use
     * too (durableOptions), and crashRestartNode() can rebuild a replica
     * from that file mid-run. Sim costs for the log ride the cost
     * model's walAppendPerByteNs / fsyncNs knobs.
     */
    std::string walDir;
    /** fsync policy for the per-node WALs (walDir non-empty only). */
    store::FsyncPolicy walFsync = store::FsyncPolicy::Group;
    /**
     * TEST-ONLY fault shim: when non-zero, a Hermes write submitted to a
     * replica whose view epoch has reached this value is acknowledged to
     * the client *before* the protocol commits it (the write itself
     * still runs). This plants a latent ack-before-commit bug that only
     * manifests after a reconfiguration — the self-test target the
     * fault-schedule explorer must find and shrink. Never set outside
     * the explorer self-test.
     */
    Epoch buggyAckBeforeCommitAtEpoch = 0;
};

/**
 * A simulated cluster. Client operations are injected through submit(),
 * which charges the node's worker CPU for request decode + KVS access the
 * way the paper's worker threads do. The caller (or routeNode) must pick
 * a node in the target key's shard group.
 */
class SimCluster : private MigrationRuntime, private ReplicaHost
{
  public:
    explicit SimCluster(ClusterConfig config);
    ~SimCluster();

    SimCluster(const SimCluster &) = delete;
    SimCluster &operator=(const SimCluster &) = delete;

    /** Start RM agents and protocol engines. */
    void start();

    sim::SimRuntime &runtime() { return *runtime_; }
    ReplicaHandle &replica(NodeId id) { return *replicas_.at(id); }
    size_t numNodes() const { return replicas_.size(); }
    size_t numShards() const { return shardMap_.numShards(); }
    size_t replicasPerShard() const { return shardMap_.replicasPerShard(); }
    const ShardMap &shardMap() const { return shardMap_; }
    const ClusterConfig &config() const { return config_; }
    TimeNs now() const { return runtime_->now(); }

    /**
     * The shard owning @p key under the cluster's live slot map: the
     * uniform epoch-1 map until a migration moves slots, after which
     * routing follows the installed ownership.
     */
    uint32_t shardOf(Key key) const { return slotMap_.ownerOf(key); }

    /** The live versioned slot → shard ownership map. */
    const SlotMap &slotMap() const { return slotMap_; }

    /** The @p replica_index -th replica of @p key 's shard group. */
    NodeId
    routeNode(Key key, size_t replica_index = 0) const
    {
        const NodeSet &group = shardMap_.nodesOf(shardOf(key));
        return group.at(replica_index % group.size());
    }

    /**
     * Crash-aware routing: the @p replica_index -th replica of @p key 's
     * group if alive, else the lowest-id live replica of that group
     * (deterministic client failover), else kInvalidNode when the whole
     * group is down.
     */
    NodeId
    liveRouteNode(Key key, size_t replica_index = 0) const
    {
        return liveNodeOfShard(shardOf(key), replica_index);
    }

    /** liveRouteNode for a caller that already hashed the key. */
    NodeId liveNodeOfShard(uint32_t shard, size_t replica_index) const;

    /** Crash-stop a node (CPU halted, network severed). */
    void crash(NodeId id) override { runtime_->crash(id); }

    /**
     * Crash-and-recover fault primitive (Hermes with walDir set only):
     * restartFromWal (app/replica_handle.hh) on @p id 's group. Its
     * steps are submitted as zero-cost jobs — the caller advances the
     * sim (runFor) to play them out; the node is operational once the
     * state transfer completes.
     */
    void crashRestartNode(NodeId id);

    // ---- Live slot migration (Hermes only) ----

    /**
     * Start moving @p slots from shard @p from to shard @p to under the
     * shared coordinator (app/migration.hh): it cuts over only on a
     * passing verification scan and aborts at the Locked-phase bound.
     * Runs as scheduled events: advance the sim (runFor) until
     * migrationActive() clears. Slots @p from does not own are ignored;
     * one migration at a time.
     */
    void migrateSlots(std::vector<uint32_t> slots, uint32_t from,
                      uint32_t to);

    /**
     * Fault-schedule form of migrateSlots: start the migration at
     * absolute sim time @p at (skipped if one is already running then).
     */
    void scheduleMigration(TimeNs at, std::vector<uint32_t> slots,
                           uint32_t from, uint32_t to);

    /** The migration coordinator: phase and counters. */
    const MigrationCoordinator &migration() const { return migration_; }
    bool migrationActive() const { return migration_.active(); }

    /** Advance simulated time. */
    void runFor(DurationNs d) { runtime_->runFor(d); }

    // ---- Async client API (through the node's CPU) ----
    void read(NodeId node, Key key, ReplicaHandle::ReadCallback cb);
    void write(NodeId node, Key key, ValueRef value,
               ReplicaHandle::WriteCallback cb);
    void cas(NodeId node, Key key, ValueRef expected, ValueRef desired,
             ReplicaHandle::CasCallback cb);

    // ---- Synchronous helpers (run the sim until the op completes) ----

    /** Read; returns nullopt if the op does not complete within timeout. */
    std::optional<Value> readSync(NodeId node, Key key,
                                  DurationNs timeout = 100_ms);

    /** Write; returns false on timeout. */
    bool writeSync(NodeId node, Key key, ValueRef value,
                   DurationNs timeout = 100_ms);

    /** CAS; returns nullopt on timeout, else whether it applied. */
    std::optional<bool> casSync(NodeId node, Key key, ValueRef expected,
                                ValueRef desired,
                                DurationNs timeout = 100_ms);

    /**
     * Convergence probe: true when every live replica of the key's shard
     * group, §3.4 shadows skipped, holds the same value and timestamp for
     * @p key. A copy may still be non-Valid (its VAL was lost): data
     * agreement is the invariant. Used by the property tests' quiescence
     * assertions.
     */
    bool converged(Key key) const;

  private:
    /** Per-node ReplicaOptions: shard-group base and the
     *  durable wiring (durableOptions) when walDir is set. */
    ReplicaOptions optionsForNode(uint32_t shard, NodeId id) const;

    /**
     * Submit a write or CAS at @p node through migration admission:
     * `op(replica, committed)` runs it on the replica, calling the
     * commit hook before its callback; a parked op re-runs at the
     * route of its key once the move ends.
     */
    template <typename Op>
    void submitWrite(NodeId node, Key key, Op op);

    /** One timed migration work quantum; reschedules itself. */
    void migrationStep();

    /** Node @p id 's life: 0 while down, else restarts + 1. */
    uint64_t incarnation(NodeId id) const;

    // MigrationRuntime: the coordinator's view of the sim.
    std::vector<Replica> sourceReplicas(uint32_t shard) override;
    void copyToDestination(uint32_t shard,
                           const std::vector<Entry> &entries) override;
    void fence(NodeId replica, std::function<void()> landed) override;
    void nudge(NodeId replica, Key key) override;
    void installSuccessor(const std::vector<uint32_t> &slots,
                          uint32_t to) override;

    // ReplicaHost: crashRestartNode's steps and map stamps as sim jobs
    // (a crashed node's are dropped).
    bool alive(NodeId id) override { return runtime_->alive(id); }
    void queueJob(NodeId id, ReplicaJob job) override;
    Epoch viewEpoch(NodeId id) override;
    uint32_t mapEpoch() override { return slotMap_.epoch; }
    void rebuild(NodeId id, const membership::MembershipView &view) override;

    ClusterConfig config_;
    ShardMap shardMap_;
    SlotMap slotMap_;
    std::unique_ptr<sim::SimRuntime> runtime_;
    std::vector<std::unique_ptr<ReplicaHandle>> replicas_;
    MigrationCoordinator migration_;
};

} // namespace hermes::app

#endif // HERMES_APP_CLUSTER_HH
