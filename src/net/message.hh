/**
 * @file
 * Protocol message envelope shared by every replication protocol and both
 * transports.
 *
 * Messages are immutable once sent (the simulated network hands the same
 * shared_ptr to several receivers and may duplicate deliveries), carry the
 * sender id and the sender's membership epoch (paper §2.4: receivers drop
 * messages from a different epoch), and know their wire size so the cost
 * model can charge CPU and network time per byte.
 *
 * Each protocol module defines concrete subclasses and registers them so
 * the TCP transport can (de)serialize them; the simulated transport never
 * serializes.
 *
 * A message's layout is its `wire` field list, defined once: the fields
 * in wire order, `template <typename Ar> void wire(Ar &ar) { ar(a, b); }`.
 * WireMsg derives payloadSize(), valueBytes(), serializePayload() and the
 * decoder from it, so the size the cost model and the TCP batch frames
 * trust is the size the encoder writes.
 */

#ifndef HERMES_NET_MESSAGE_HH
#define HERMES_NET_MESSAGE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>

#include "common/serialize.hh"
#include "common/types.hh"

namespace hermes::net
{

/**
 * Global registry of message kinds (a protocol-number space). Grouped per
 * protocol; the numeric values are part of the TCP wire format.
 */
enum class MsgType : uint8_t
{
    // --- Hermes (paper §3) ---
    HermesInv = 0,       ///< invalidation carrying key, timestamp, value
    HermesAck = 1,       ///< ack of an INV (O3: may be broadcast)
    HermesVal = 2,       ///< validation completing a write
    HermesStateReq = 3,  ///< shadow replica requests a state chunk (§3.4)
    HermesStateChunk = 4, ///< a batch of key/ts/value entries + done flag
    HermesEpochCheck = 5, ///< LSC-free read validation probe (§8)
    HermesEpochCheckAck = 6, ///< same-epoch acknowledgment of a probe

    // --- CRAQ (paper §2.5) ---
    CraqWrite = 16,      ///< write propagating down the chain
    CraqWriteAck = 17,   ///< ack propagating back up the chain
    CraqVersionQuery = 18, ///< dirty-read version query to the tail
    CraqVersionReply = 19, ///< tail's committed-version answer
    CraqForward = 20,    ///< non-head node forwarding a client write to head

    // --- ZAB (paper §5.1.1) ---
    ZabForward = 32,     ///< follower forwards a client write to the leader
    ZabPropose = 33,     ///< leader proposal broadcast
    ZabAck = 34,         ///< follower ack to the leader
    ZabCommit = 35,      ///< leader commit broadcast

    // --- Lock-step total-order broadcast (Derecho-like, paper §6.5) ---
    LockstepSubmit = 48, ///< node submits an update to the current round
    LockstepRound = 49,  ///< sequencer's ordered round delivery
    LockstepAck = 50,    ///< round receipt ack enabling lock-step advance

    // --- Reliable membership (paper §2.4) ---
    RmHeartbeat = 64,    ///< liveness beacon
    RmPrepare = 65,      ///< Paxos phase-1a for an m-update
    RmPromise = 66,      ///< Paxos phase-1b
    RmAccept = 67,       ///< Paxos phase-2a
    RmAccepted = 68,     ///< Paxos phase-2b
    RmDecide = 69,       ///< learn a decided m-update

    // --- Client/server framing for the TCP deployment ---
    ClientRequest = 96,  ///< read/write/RMW from an external client
    ClientReply = 97,    ///< completion back to the client

    // 112 stays unassigned: older peers sent per-peer batch envelopes
    // under it, and those must decode to nothing like any unknown type.
};

/** @return a short mnemonic, e.g. "INV", for traces. */
const char *msgTypeName(MsgType type);

/**
 * Membership (RM) traffic: heartbeats and m-update rounds. It is never
 * held in a coalescing window (failure detection must not wait behind
 * data-path batching), and replicas route it to their RM agent.
 */
constexpr bool
isRmMessage(MsgType type)
{
    return type >= MsgType::RmHeartbeat && type <= MsgType::RmDecide;
}

/**
 * Encoded envelope bytes (type u8 + src u32 + epoch u32), as written by
 * encodeMessage(). Anything that computes an encoded frame's length up
 * front (batch framing, wireSize) must use this, not a literal.
 */
constexpr size_t kEnvelopeBytes = 9;

/**
 * Abstract message. Concrete subclasses add the payload fields and the
 * payload (de)serialization, normally through WireMsg; the envelope
 * (type, src, epoch) is handled here.
 */
class Message
{
  public:
    explicit Message(MsgType type) : type_(type) {}
    virtual ~Message() = default;

    MsgType type() const { return type_; }

    /** Sender node id; stamped by the transport at send time. */
    NodeId src = kInvalidNode;

    /** Sender's membership epoch at message creation (paper §2.4). */
    Epoch epoch = 0;

    /**
     * Bytes this message occupies on the wire, including the envelope and
     * a nominal 7-byte transport header; drives the cost model.
     */
    size_t wireSize() const { return kEnvelopeBytes + 7 + payloadSize(); }

    /** Payload-only size in bytes. */
    virtual size_t payloadSize() const = 0;

    /**
     * Bytes of application *value* payload this message carries (0 for
     * header-only messages). Drives the cost model's software-copy charge:
     * these are the bytes the zero-copy path stops copying on
     * encode/decode.
     */
    virtual size_t valueBytes() const { return 0; }

    /** Serialize the payload (not the envelope) into @p writer. */
    virtual void serializePayload(BufWriter &writer) const = 0;

  private:
    MsgType type_;
};

using MessagePtr = std::shared_ptr<const Message>;

/** Payload decoder: builds a concrete message from reader bytes. */
using MessageDecoder =
    std::function<std::shared_ptr<Message>(BufReader &)>;

/**
 * Register the payload decoder for a message type (registerMessage<T>()
 * for field-list messages). Duplicate
 * registration of a type is a no-op (first wins — families always
 * re-register identical decoders). Thread-safe against concurrent
 * registration and decoding.
 */
void registerDecoder(MsgType type, MessageDecoder decoder);

/** @return the registered decoder or nullptr. */
const MessageDecoder *findDecoder(MsgType type);

/** Serialize envelope + payload into a frame body (no length prefix). */
void encodeMessage(const Message &msg, std::vector<uint8_t> &out);

/**
 * Scatter/gather encode: fixed fields into @p frame 's staging buffer,
 * values above kZeroCopyThreshold registered as segments referencing the
 * message's ValueRef buffers. Flattening the frame yields exactly the
 * bytes the vector overload produces.
 */
void encodeMessage(const Message &msg, WireFrame &frame);

// ---------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------
//
// A field list names each field once; the archive decides what happens
// to it. Integers go at their own width, bools and enums as their (u8)
// underlying width, ValueRefs as a u32 length plus bytes, and structs
// with a `wire` member as their own field list.

/**
 * Field-list marker: @p items goes as a Count-wide element count, then
 * each element. Inner names the count widths of nested vectors,
 * outermost first. Built by counted<Count, Inner...>(items).
 */
template <typename Vec, typename Count, typename... Inner>
struct Counted
{
    Vec &items;
};

template <typename Count, typename... Inner, typename Vec>
Counted<Vec, Count, Inner...>
counted(Vec &items)
{
    return {items};
}

/**
 * Field-list marker: optionals that are set together or not at all go
 * as one u8 flag, then, when set, each value in order.
 */
template <typename... Ts>
struct Together
{
    std::tuple<std::optional<Ts> &...> opts;
};

template <typename... Ts>
Together<Ts...>
together(std::optional<Ts> &...opts)
{
    return {{opts...}};
}

template <typename T>
concept WireScalar = std::is_integral_v<T> || std::is_enum_v<T>;

/** Dispatch the three archives share: field lists, nested structs and
 *  the elements of counted vectors. */
template <typename Ar>
class Archive
{
  public:
    template <typename... Fields>
    void
    operator()(Fields &&...fields)
    {
        (self().field(fields), ...);
    }

    template <typename T>
        requires requires(T &t, Ar &ar) { t.wire(ar); }
    void field(T &nested) { nested.wire(self()); }

    /** One element of a counted vector whose nested counts are Inner. */
    template <typename... Inner, typename T>
    void
    element(T &item)
    {
        if constexpr (sizeof...(Inner) == 0)
            self().field(item);
        else
            self().field(counted<Inner...>(item));
    }

  private:
    Ar &self() { return static_cast<Ar &>(*this); }
};

/** Counts a field list's payload bytes and, among them, value bytes. */
class SizeArchive : public Archive<SizeArchive>
{
  public:
    using Archive::field;

    size_t bytes = 0;
    size_t values = 0;

    template <WireScalar T>
    void field(const T &) { bytes += sizeof(T); }

    void
    field(const ValueRef &value)
    {
        bytes += 4 + value.size();
        values += value.size();
    }

    template <typename Vec, typename Count, typename... Inner>
    void
    field(const Counted<Vec, Count, Inner...> &vec)
    {
        bytes += sizeof(Count);
        for (auto &item : vec.items)
            element<Inner...>(item);
    }

    template <typename... Ts>
    void
    field(const Together<Ts...> &group)
    {
        bytes += 1;
        std::apply([this](auto &...opt) {
            if ((opt.has_value() && ...))
                (field(*opt), ...);
        }, group.opts);
    }
};

/**
 * Writes a field list through a BufWriter; in gather mode, values above
 * kZeroCopyThreshold ride as segments (BufWriter::putValue).
 */
class WriteArchive : public Archive<WriteArchive>
{
  public:
    using Archive::field;

    explicit WriteArchive(BufWriter &writer) : writer_(writer) {}

    template <WireScalar T>
    void field(const T &v) { put<sizeof(T)>(static_cast<uint64_t>(v)); }

    void field(const ValueRef &value) { writer_.putValue(value); }

    template <typename Vec, typename Count, typename... Inner>
    void
    field(const Counted<Vec, Count, Inner...> &vec)
    {
        put<sizeof(Count)>(vec.items.size());
        for (auto &item : vec.items)
            element<Inner...>(item);
    }

    template <typename... Ts>
    void
    field(const Together<Ts...> &group)
    {
        std::apply([this](auto &...opt) {
            bool all = (opt.has_value() && ...);
            field(all);
            if (all)
                (field(*opt), ...);
        }, group.opts);
    }

  private:
    template <size_t Width>
    void
    put(uint64_t v)
    {
        if constexpr (Width == 1)
            writer_.putU8(static_cast<uint8_t>(v));
        else if constexpr (Width == 2)
            writer_.putU16(static_cast<uint16_t>(v));
        else if constexpr (Width == 4)
            writer_.putU32(static_cast<uint32_t>(v));
        else
            writer_.putU64(v);
    }

    BufWriter &writer_;
};

/** Fewest wire bytes one T takes (a default T: empty values and
 *  vectors); bounds how many elements a count may claim. */
template <typename T, typename... Inner>
size_t
minWireBytes()
{
    static const size_t min = [] {
        T item{};
        SizeArchive size;
        size.element<Inner...>(item);
        return size.bytes;
    }();
    return min;
}

/**
 * Fills a field list from a BufReader. A count whose elements could not
 * fit in the bytes left fails the reader before anything is allocated,
 * so a corrupt count cannot allocate past the frame.
 */
class ReadArchive : public Archive<ReadArchive>
{
  public:
    using Archive::field;

    explicit ReadArchive(BufReader &reader) : reader_(reader) {}

    template <WireScalar T>
    void field(T &v) { v = static_cast<T>(get<sizeof(T)>()); }

    void field(ValueRef &value) { value = reader_.getValue(); }

    template <typename Vec, typename Count, typename... Inner>
    void
    field(const Counted<Vec, Count, Inner...> &vec)
    {
        uint64_t count = get<sizeof(Count)>();
        using Item = typename Vec::value_type;
        if (count * minWireBytes<Item, Inner...>() > reader_.remaining()) {
            reader_.fail();
            return;
        }
        vec.items.resize(count);
        for (Item &item : vec.items) {
            if (!reader_.ok())
                return;
            element<Inner...>(item);
        }
    }

    template <typename... Ts>
    void
    field(const Together<Ts...> &group)
    {
        bool all = false;
        field(all);
        if (all)
            std::apply([this](auto &...opt) { (field(opt.emplace()), ...); },
                       group.opts);
    }

  private:
    template <size_t Width>
    uint64_t
    get()
    {
        if constexpr (Width == 1)
            return reader_.getU8();
        else if constexpr (Width == 2)
            return reader_.getU16();
        else if constexpr (Width == 4)
            return reader_.getU32();
        else
            return reader_.getU64();
    }

    BufReader &reader_;
};

/**
 * A message whose layout is Derived's `wire` field list: the payload
 * size, value bytes and encoder come from it here, the decoder through
 * registerMessage<Derived>().
 */
template <typename Derived, MsgType Type>
struct WireMsg : Message
{
    static constexpr MsgType kType = Type;

    WireMsg() : Message(Type) {}

    size_t payloadSize() const override { return sized().bytes; }
    size_t valueBytes() const override { return sized().values; }

    void
    serializePayload(BufWriter &writer) const override
    {
        WriteArchive ar(writer);
        fields().wire(ar);
    }

  private:
    // One non-const field list serves the decoder too; the size and
    // write archives only read through it.
    Derived &
    fields() const
    {
        return const_cast<Derived &>(static_cast<const Derived &>(*this));
    }

    SizeArchive
    sized() const
    {
        SizeArchive ar;
        fields().wire(ar);
        return ar;
    }
};

/** Register the decoder of WireMsg T, its field list read back
 *  (idempotent). */
template <typename T>
void
registerMessage()
{
    registerDecoder(T::kType, [](BufReader &reader) {
        auto msg = std::make_shared<T>();
        ReadArchive ar(reader);
        msg->wire(ar);
        return msg;
    });
}

/**
 * Decode a frame body produced by encodeMessage.
 * @param pin shared ownership of the buffer's backing slab; when set,
 *            decoded values above kZeroCopyThreshold alias the slab
 *            (the message keeps it alive) instead of being copied out.
 * @return nullptr if the frame is malformed or the type unknown.
 */
std::shared_ptr<Message> decodeMessage(const uint8_t *data, size_t len,
                                       std::shared_ptr<const void> pin
                                       = nullptr);

} // namespace hermes::net

#endif // HERMES_NET_MESSAGE_HH
