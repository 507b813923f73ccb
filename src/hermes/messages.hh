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
struct InvMsg : net::Message
{
    InvMsg() : Message(net::MsgType::HermesInv) {}

    Key key = 0;
    Timestamp ts;
    bool rmw = false;   ///< RMW_flag (§3.6): update is a conflicting RMW
    ValueRef value;

    size_t payloadSize() const override { return 8 + 8 + 1 + 4 + value.size(); }
    size_t valueBytes() const override { return value.size(); }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(key);
        writer.putU32(ts.version);
        writer.putU32(ts.cid);
        writer.putU8(rmw ? 1 : 0);
        writer.putValue(value);
    }
};

/** Acknowledgment of an INV (with O3, broadcast to all replicas). */
struct AckMsg : net::Message
{
    AckMsg() : Message(net::MsgType::HermesAck) {}

    Key key = 0;
    Timestamp ts;

    size_t payloadSize() const override { return 16; }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(key);
        writer.putU32(ts.version);
        writer.putU32(ts.cid);
    }
};

/** Validation: commit notification making the key readable again. */
struct ValMsg : net::Message
{
    ValMsg() : Message(net::MsgType::HermesVal) {}

    Key key = 0;
    Timestamp ts;

    size_t payloadSize() const override { return 16; }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(key);
        writer.putU32(ts.version);
        writer.putU32(ts.cid);
    }
};

/**
 * Shadow replica (§3.4 Recovery) state-transfer request: "send me the
 * next chunk of your datastore; I have applied X entries so far".
 */
struct StateReqMsg : net::Message
{
    StateReqMsg() : Message(net::MsgType::HermesStateReq) {}

    uint64_t offset = 0;

    size_t payloadSize() const override { return 8; }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(offset);
    }
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
};

/** A batch of entries read from the source's live store. */
struct StateChunkMsg : net::Message
{
    StateChunkMsg() : Message(net::MsgType::HermesStateChunk) {}

    uint64_t offset = 0;  ///< entries served before this chunk
    bool done = false;    ///< no entries beyond this chunk
    std::vector<StateEntry> entries;

    size_t
    payloadSize() const override
    {
        size_t size = 8 + 1 + 4;
        for (const StateEntry &entry : entries)
            size += 8 + 8 + 2 + 4 + entry.value.size();
        return size;
    }

    size_t
    valueBytes() const override
    {
        size_t bytes = 0;
        for (const StateEntry &entry : entries)
            bytes += entry.value.size();
        return bytes;
    }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(offset);
        writer.putU8(done ? 1 : 0);
        writer.putU32(static_cast<uint32_t>(entries.size()));
        for (const StateEntry &entry : entries) {
            writer.putU64(entry.key);
            writer.putU32(entry.ts.version);
            writer.putU32(entry.ts.cid);
            writer.putU8(entry.flags);
            writer.putU8(entry.valid ? 1 : 0);
            writer.putValue(entry.value);
        }
    }
};

/**
 * LSC-free read validation (§8): a header-only probe asking the
 * followers "are you in my membership epoch?". A majority of matching
 * answers proves the sender was a member of the latest membership when
 * its speculative reads executed, validating them without any lease.
 */
struct EpochCheckMsg : net::Message
{
    EpochCheckMsg() : Message(net::MsgType::HermesEpochCheck) {}

    uint64_t nonce = 0;

    size_t payloadSize() const override { return 8; }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(nonce);
    }
};

/** Same-epoch acknowledgment of an EpochCheckMsg. */
struct EpochCheckAckMsg : net::Message
{
    EpochCheckAckMsg() : Message(net::MsgType::HermesEpochCheckAck) {}

    uint64_t nonce = 0;

    size_t payloadSize() const override { return 8; }

    void
    serializePayload(BufWriter &writer) const override
    {
        writer.putU64(nonce);
    }
};

/** Register decoders for Hermes message types (idempotent). */
void registerHermesCodecs();

} // namespace hermes::proto

#endif // HERMES_HERMES_MESSAGES_HH
