/**
 * @file
 * Client-facing request/reply framing for the TCP deployment: external
 * clients connect to any replica's port and issue reads, writes and CAS
 * RMWs over the same Wings framing the replicas use among themselves.
 */

#ifndef HERMES_NET_CLIENT_MSGS_HH
#define HERMES_NET_CLIENT_MSGS_HH

#include "net/message.hh"

namespace hermes::net
{

/**
 * One shard's contact addresses: the TCP ports (localhost deployment) of
 * the replica group serving that shard, dialing order = replica order.
 * An empty list means "this service does not know that shard's address"
 * (a standalone single-group service only knows itself). On the wire:
 * a u16 count, then u16 ports.
 */
using ShardPorts = std::vector<uint16_t>;

/**
 * The deployment's shard → address map: entry s lists shard s's replica
 * ports. Exchanged at client HELLO and refreshed on every WrongShard
 * rejection, so a client can re-route to the shard that actually owns a
 * key instead of retrying a dead-end connection.
 */
using ShardAddressMap = std::vector<ShardPorts>;

/** One client operation. */
struct ClientRequestMsg : WireMsg<ClientRequestMsg, MsgType::ClientRequest>
{
    enum class Op : uint8_t
    {
        Read = 0,
        Write = 1,
        Cas = 2,
        /**
         * HELLO negotiation: no register op. The service answers Ok with
         * its full shard map (count, own shard, addresses); a fresh
         * client issues this on connect to resolve routing before the
         * first real op, VAL-protocol style.
         */
        Hello = 3,
    };

    Op op = Op::Read;
    uint64_t reqId = 0;
    Key key = 0;
    /**
     * Shard the client routed this key to (its owner under the client's
     * adopted slot map; 0 before any map is adopted). Lets a sharded
     * service detect a client with a stale map instead of silently
     * serving the key from the wrong group, and is echoed in the reply.
     */
    uint32_t shard = 0;
    /**
     * The shard *count* of the map the client routed with. Checked by the
     * service against its own count BEFORE any hashing or map indexing: a
     * stale or garbage count (0, or a different deployment generation)
     * is rejected up front with WrongShard + the authoritative map, so a
     * bogus stamp can never index anything service-side.
     */
    uint32_t numShards = 1;
    /**
     * Epoch of the slot map the client routed with (0 = no map adopted,
     * a legacy/fresh client). Validated BEFORE anything indexes with it:
     * a stamp from the service's *future* (garbage, or a generation this
     * service never saw) is rejected up front with WrongShard + the
     * current authoritative map. An *older* epoch is not by itself a
     * rejection — if the stamped owner still matches, the slot did not
     * move and the op is served (migrations must not invalidate every
     * client's routing for untouched slots).
     */
    uint32_t mapEpoch = 0;
    ValueRef value;    ///< write value / CAS desired
    ValueRef expected; ///< CAS expected

    template <typename Ar>
    void
    wire(Ar &ar)
    {
        ar(op, reqId, key, shard, numShards, mapEpoch, value, expected);
    }
};

/** Completion of a client operation. */
struct ClientReplyMsg : WireMsg<ClientReplyMsg, MsgType::ClientReply>
{
    /** Why a request was (not) served. */
    enum class Status : uint8_t
    {
        Ok = 0,
        /**
         * The request's shard stamp disagrees with the serving group's
         * shard map: the client routed with a stale map. The op was NOT
         * executed; the client must refresh its map and re-route.
         */
        WrongShard = 1,
        /**
         * Client-side synthesis, never sent by a service: the bounded
         * re-resolve-and-reroute loop kept landing on WrongShard after
         * adopting every advertised map — the deployment's map is
         * churning faster than the client can chase it (or two services
         * disagree). Distinct from WrongShard so callers can tell "no
         * route exists from here" from "routing never converged".
         */
        RetriesExhausted = 2,
    };

    uint64_t reqId = 0;
    Status status = Status::Ok;
    bool ok = true;  ///< CAS: applied; read/write: always true
    /** Echo of the request's shard id (client-side routing check). */
    uint32_t shard = 0;
    /**
     * The serving group's shard map, always populated by the service:
     * the deployment's shard count and the shard this group serves. On a
     * WrongShard rejection this is what lets the client *re-resolve* its
     * map (adopt mapShards) and re-route instead of surfacing the error.
     */
    uint32_t mapShards = 0;
    uint32_t mapShard = 0;
    /**
     * Granted per-session credit window, populated on HELLO replies
     * (0 elsewhere = "not negotiating here"): the most requests this
     * session may pipeline before the server stops reading its socket.
     * The client requested a window in its transport hello; this is the
     * server's clamp of that request — the session must cap its
     * in-flight ops at it or expect TCP backpressure.
     */
    uint32_t credits = 0;
    /**
     * Shard → replica-port address map. Populated on HELLO replies and
     * WrongShard rejections (empty on the data path to keep replies
     * lean): entry s lists shard s's replica ports, so a misrouted
     * client can *reconnect to the owning shard's address* instead of
     * uselessly retrying the same socket. A standalone single-group
     * service fills only its own entry.
     */
    ShardAddressMap mapPorts;
    /**
     * Epoch of the slot map this service is serving under, stamped on
     * EVERY reply (cheap: one u32). Clients adopt advertised maps
     * strictly by this version — a delayed reply carrying an older map
     * is discarded instead of rolling the client's routing back.
     */
    uint32_t mapEpoch = 0;
    /**
     * Slot → owning-shard table of the advertised map. Populated on
     * HELLO replies and WrongShard rejections only (empty on the data
     * path: 2 KiB would dwarf a 32 B value); either empty or exactly
     * kNumSlots entries. Clients route by this table; a reply that
     * changes the count without one teaches the uniform placement over
     * the new count.
     */
    std::vector<uint16_t> slotOwners;
    ValueRef value;  ///< read result / CAS observed value

    template <typename Ar>
    void
    wire(Ar &ar)
    {
        ar(reqId, status, ok, shard, mapShards, mapShard, credits,
           counted<uint16_t, uint16_t>(mapPorts), mapEpoch,
           counted<uint16_t>(slotOwners), value);
    }
};

/** Register the client framing messages (idempotent). */
void registerClientCodecs();

} // namespace hermes::net

#endif // HERMES_NET_CLIENT_MSGS_HH
