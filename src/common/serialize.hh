/**
 * @file
 * Bounds-checked binary serialization used by the TCP transport.
 *
 * Fixed-width **explicitly little-endian** encoding; no varints, no
 * reflection. Messages here are small and fixed-shape (INV/ACK/VAL and
 * friends), so the simple scheme is both the fastest and the easiest to
 * audit. The integer codecs byte-shift rather than memcpy the host
 * representation, so the wire format is identical on big-endian hosts
 * (and the golden-bytes test in tests/common/test_serialize.cc freezes
 * it). The simulated transport passes message objects by value and never
 * serializes.
 *
 * Zero-copy value path: BufWriter can run in *gather mode* over a
 * WireFrame — fixed fields land in the frame's staging buffer while
 * values above kZeroCopyThreshold are registered as scatter/gather
 * segments referencing their ValueRef buffers, which the TCP transport's
 * writev() gathers straight from the KVS-read/receive-slab memory with
 * no intermediate frame copy. Symmetrically, BufReader can carry a *pin*
 * (shared ownership of the receive slab): getValue() then aliases large
 * values in place instead of materializing strings.
 */

#ifndef HERMES_COMMON_SERIALIZE_HH
#define HERMES_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/value_ref.hh"

namespace hermes
{

// ---- Little-endian primitives (shared with the TCP frame headers) ----

inline void
leStore16(uint8_t *out, uint16_t v)
{
    out[0] = static_cast<uint8_t>(v);
    out[1] = static_cast<uint8_t>(v >> 8);
}

inline void
leStore32(uint8_t *out, uint32_t v)
{
    out[0] = static_cast<uint8_t>(v);
    out[1] = static_cast<uint8_t>(v >> 8);
    out[2] = static_cast<uint8_t>(v >> 16);
    out[3] = static_cast<uint8_t>(v >> 24);
}

inline void
leStore64(uint8_t *out, uint64_t v)
{
    leStore32(out, static_cast<uint32_t>(v));
    leStore32(out + 4, static_cast<uint32_t>(v >> 32));
}

inline uint16_t
leLoad16(const uint8_t *in)
{
    return static_cast<uint16_t>(in[0] | (uint16_t(in[1]) << 8));
}

inline uint32_t
leLoad32(const uint8_t *in)
{
    return uint32_t(in[0]) | (uint32_t(in[1]) << 8)
           | (uint32_t(in[2]) << 16) | (uint32_t(in[3]) << 24);
}

inline uint64_t
leLoad64(const uint8_t *in)
{
    return uint64_t(leLoad32(in)) | (uint64_t(leLoad32(in + 4)) << 32);
}

/**
 * One encoded wire frame in scatter/gather form: a staging buffer holding
 * every fixed field (and every small, inlined value), plus an ordered list
 * of external segments — ValueRef buffers spliced in after a given staging
 * offset. Flattening reproduces exactly the bytes the copy path would have
 * produced, so the receiver cannot tell which path encoded a frame.
 */
class WireFrame
{
  public:
    struct Segment
    {
        /** Staging bytes [0, stagingOff) precede this segment's ref. */
        size_t stagingOff;
        ValueRef ref;
    };

    std::vector<uint8_t> staging;
    std::vector<Segment> segments; ///< ascending stagingOff

    /** Total wire bytes (staging + all external segments). */
    size_t
    size() const
    {
        size_t total = staging.size();
        for (const Segment &seg : segments)
            total += seg.ref.size();
        return total;
    }

    /** 1 + extra iovec slots this frame needs in a gathered writev. */
    size_t
    iovecCount() const
    {
        // Worst case: every segment splits the staging run around it.
        return 1 + 2 * segments.size();
    }

    /** Append the flattened frame bytes to @p out (copy fallback path). */
    void flattenTo(std::vector<uint8_t> &out) const;

    /**
     * Visit the frame as an ordered byte-run sequence (staging slices and
     * external refs interleaved); the TCP transport turns each run into
     * one iovec. @p fn is called as fn(const void *data, size_t len).
     */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        size_t consumed = 0;
        for (const Segment &seg : segments) {
            if (seg.stagingOff > consumed) {
                fn(staging.data() + consumed, seg.stagingOff - consumed);
                consumed = seg.stagingOff;
            }
            if (!seg.ref.empty())
                fn(seg.ref.data(), seg.ref.size());
        }
        if (staging.size() > consumed)
            fn(staging.data() + consumed, staging.size() - consumed);
    }
};

/**
 * Append-only byte sink. Plain mode copies everything into one vector;
 * gather mode (constructed over a WireFrame) additionally diverts large
 * values into scatter/gather segments instead of copying them.
 */
class BufWriter
{
  public:
    explicit BufWriter(std::vector<uint8_t> &out) : out_(out) {}

    /** Gather mode: fixed fields into frame.staging, big values by ref. */
    explicit BufWriter(WireFrame &frame)
        : out_(frame.staging), frame_(&frame)
    {}

    void putU8(uint8_t v) { out_.push_back(v); }

    void
    putU16(uint16_t v)
    {
        uint8_t b[2];
        leStore16(b, v);
        putBytes(b, sizeof(b));
    }

    void
    putU32(uint32_t v)
    {
        uint8_t b[4];
        leStore32(b, v);
        putBytes(b, sizeof(b));
    }

    void
    putU64(uint64_t v)
    {
        uint8_t b[8];
        leStore64(b, v);
        putBytes(b, sizeof(b));
    }

    /** Length-prefixed (u32) byte string. */
    void putString(const std::string &s);

    /**
     * Length-prefixed (u32) value. Wire-identical to putString; in gather
     * mode a value above kZeroCopyThreshold becomes an external segment
     * referencing the ValueRef's buffer — zero bytes copied here.
     */
    void putValue(const ValueRef &v);

    /** Raw bytes with no length prefix (caller knows the shape). */
    void putRaw(const void *data, size_t len);

    size_t size() const { return out_.size(); }

  private:
    void
    putBytes(const void *p, size_t n)
    {
        const auto *bytes = static_cast<const uint8_t *>(p);
        out_.insert(out_.end(), bytes, bytes + n);
    }

    std::vector<uint8_t> &out_;
    WireFrame *frame_ = nullptr;
};

/**
 * Bounds-checked byte source. All getters set ok() to false (and return
 * zero values) on underrun instead of reading out of bounds, so a truncated
 * or corrupt frame can never crash a replica — it is detected and the frame
 * dropped, which every protocol here already tolerates as message loss.
 *
 * When constructed with a pin (shared ownership of the buffer's backing
 * slab), getValue() aliases large values in the slab — the decoded message
 * pins the slab alive through its ValueRefs instead of copying bytes out.
 */
class BufReader
{
  public:
    BufReader(const uint8_t *data, size_t len,
              std::shared_ptr<const void> pin = nullptr)
        : data_(data), len_(len), pos_(0), ok_(true), pin_(std::move(pin))
    {}

    uint8_t getU8();
    uint16_t getU16();
    uint32_t getU32();
    uint64_t getU64();
    std::string getString();

    /**
     * Length-prefixed value: aliases the pinned slab when the value is
     * above kZeroCopyThreshold and a pin exists, else deep-copies.
     */
    ValueRef getValue();

    /** @return false once any read ran past the end. */
    bool ok() const { return ok_; }

    /** @return true when every byte was consumed and no read failed. */
    bool exhausted() const { return ok_ && pos_ == len_; }

    size_t remaining() const { return len_ - pos_; }

    /** Current read position (nested-frame decoding: batch frames). */
    const uint8_t *cursor() const { return data_ + pos_; }

    /** Mark the frame malformed (e.g. a count the bytes cannot hold). */
    void fail() { ok_ = false; }

    /** Advance past @p n bytes; sets ok() false on underrun. */
    bool
    skip(size_t n)
    {
        if (!ok_ || len_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

  private:
    bool
    take(void *out, size_t n)
    {
        if (!ok_ || len_ - pos_ < n) {
            ok_ = false;
            std::memset(out, 0, n);
            return false;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    const uint8_t *data_;
    size_t len_;
    size_t pos_;
    bool ok_;
    std::shared_ptr<const void> pin_;
};

} // namespace hermes

#endif // HERMES_COMMON_SERIALIZE_HH
