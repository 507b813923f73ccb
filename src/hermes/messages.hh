/**
 * @file
 * The three messages of Hermes (paper Figure 3): INV, ACK, VAL.
 *
 * INV carries the key, the logical timestamp *and the new value* — the
 * early value propagation that makes every invalidated replica able to
 * replay the write (§3.1, "Safely replayable writes"). ACK and VAL carry
 * only key and timestamp. All three are epoch-tagged via the envelope.
 */

#ifndef HERMES_HERMES_MESSAGES_HH
#define HERMES_HERMES_MESSAGES_HH

#include "common/timestamp.hh"
#include "net/message.hh"

namespace hermes::proto
{

/** Invalidation: start (or replay) of an update. */
struct InvMsg : net::WireMsg<InvMsg, net::MsgType::HermesInv>
{
    Key key = 0;
    Timestamp ts;
    bool rmw = false;   ///< RMW_flag (§3.6): update is a conflicting RMW
    ValueRef value;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, ts, rmw, value); }
};

/** Acknowledgment of an INV (with O3, broadcast to all replicas). */
struct AckMsg : net::WireMsg<AckMsg, net::MsgType::HermesAck>
{
    Key key = 0;
    Timestamp ts;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, ts); }
};

/** Validation: commit notification making the key readable again. */
struct ValMsg : net::WireMsg<ValMsg, net::MsgType::HermesVal>
{
    Key key = 0;
    Timestamp ts;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, ts); }
};

/**
 * Shadow replica (§3.4 Recovery) state-transfer request: "send me the
 * next chunk of your datastore; I have applied X entries so far".
 */
struct StateReqMsg : net::WireMsg<StateReqMsg, net::MsgType::HermesStateReq>
{
    uint64_t offset = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(offset); }
};

/** One state-transfer entry: a key with its timestamp and value. */
struct StateEntry
{
    Key key = 0;
    Timestamp ts;
    uint8_t flags = 0;
    /**
     * True when the source held the key Valid (committed). A non-Valid
     * source copy is still transferred — its value and timestamp are
     * exactly an INV's early-propagated data — but the shadow must store
     * it Invalid and let a write replay confirm it before serving reads.
     */
    bool valid = true;
    ValueRef value;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, ts, flags, valid, value); }
};

/** A batch of entries read from the source's live store. */
struct StateChunkMsg
    : net::WireMsg<StateChunkMsg, net::MsgType::HermesStateChunk>
{
    uint64_t offset = 0;  ///< entries served before this chunk
    bool done = false;    ///< no entries beyond this chunk
    std::vector<StateEntry> entries;

    template <typename Ar>
    void wire(Ar &ar) { ar(offset, done, net::counted<uint32_t>(entries)); }
};

/**
 * LSC-free read validation (§8): a header-only probe asking the
 * followers "are you in my membership epoch?". A majority of matching
 * answers proves the sender was a member of the latest membership when
 * its speculative reads executed, validating them without any lease.
 */
struct EpochCheckMsg
    : net::WireMsg<EpochCheckMsg, net::MsgType::HermesEpochCheck>
{
    uint64_t nonce = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(nonce); }
};

/** Same-epoch acknowledgment of an EpochCheckMsg. */
struct EpochCheckAckMsg
    : net::WireMsg<EpochCheckAckMsg, net::MsgType::HermesEpochCheckAck>
{
    uint64_t nonce = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(nonce); }
};

/** Register the Hermes message types (idempotent). */
void registerHermesCodecs();

} // namespace hermes::proto

#endif // HERMES_HERMES_MESSAGES_HH
