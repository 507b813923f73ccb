/**
 * @file
 * ValueRef: the immutable, refcounted value buffer every protocol message
 * carries instead of an owning std::string.
 *
 * A ValueRef is (pointer, length, shared ownership of the backing block).
 * The block is either a private heap copy (made exactly once, at the value's
 * entry into the system: client request encode, KVS seqlock copy-out) or a
 * transport receive slab that the decoded message *aliases* — the zero-copy
 * half of the RDMA-style data path (paper §4): a received INV's bytes are
 * touched exactly once more, by the memcpy into the KVS entry under the
 * seqlock. Passing a ValueRef between messages, pending-write records and
 * dirty lists is a refcount bump, never a byte copy.
 *
 * Aliasing policy: values of at most kZeroCopyThreshold bytes are deep
 * copied on decode instead of aliased — pinning a 64 KiB receive slab for an
 * 8-byte value would trade a cheap copy for unbounded memory amplification
 * (a CRAQ dirty list alone could hold hundreds of slabs alive). The
 * threshold is the same one the encode side uses to decide between inlining
 * a value into the staging buffer and registering it as a gather segment.
 */

#ifndef HERMES_COMMON_VALUE_REF_HH
#define HERMES_COMMON_VALUE_REF_HH

#include <atomic>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

#include "common/types.hh"

namespace hermes
{

/**
 * Below or at this many bytes a value is copied rather than aliased
 * (decode) or gathered (encode). Tuned to the paper's small-object floor:
 * 32B objects gain nothing from scatter/gather, 1KB+ objects gain a lot.
 */
constexpr size_t kZeroCopyThreshold = 64;

/**
 * Debug copy accounting: every deep byte-copy a value takes is counted at
 * the site that performs it, so tests can assert the zero-copy invariant
 * ("exactly one value copy per write hop on receive") instead of trusting
 * the code's intent. Compiled away in NDEBUG builds.
 */
#ifndef NDEBUG
#define HERMES_VALUE_COPY_COUNTERS 1
#endif

struct ValueCopyCounters
{
    /** Deep copies made constructing/materializing ValueRefs. */
    static std::atomic<uint64_t> refCopies;
    /** Bytes those deep copies moved. */
    static std::atomic<uint64_t> refCopiedBytes;
    /** Value-byte copies into KVS entries (KeyRecord::setValue). */
    static std::atomic<uint64_t> storeCopies;

    static void reset();

    static void
    countRefCopy(size_t bytes)
    {
#ifdef HERMES_VALUE_COPY_COUNTERS
        refCopies.fetch_add(1, std::memory_order_relaxed);
        refCopiedBytes.fetch_add(bytes, std::memory_order_relaxed);
#else
        (void)bytes;
#endif
    }

    static void
    countStoreCopy()
    {
#ifdef HERMES_VALUE_COPY_COUNTERS
        storeCopies.fetch_add(1, std::memory_order_relaxed);
#endif
    }
};

/** Immutable refcounted view of value bytes. Cheap to copy and move. */
class ValueRef
{
  public:
    ValueRef() = default;

    ValueRef(const ValueRef &) = default;
    ValueRef &operator=(const ValueRef &) = default;

    // Moved-from refs reset to empty: the implicit moves would null the
    // owner but leave data_/size_ pointing at a buffer this ref no
    // longer keeps alive — a silent use-after-free for any later read,
    // where the std::string these replaced read back safely empty.
    ValueRef(ValueRef &&other) noexcept
        : owner_(std::move(other.owner_)), data_(other.data_),
          size_(other.size_), aliased_(other.aliased_)
    {
        other.data_ = "";
        other.size_ = 0;
        other.aliased_ = false;
    }

    ValueRef &
    operator=(ValueRef &&other) noexcept
    {
        if (this != &other) {
            owner_ = std::move(other.owner_);
            data_ = other.data_;
            size_ = other.size_;
            aliased_ = other.aliased_;
            other.data_ = "";
            other.size_ = 0;
            other.aliased_ = false;
        }
        return *this;
    }

    /**
     * Deep-copy construction from an owning string. Implicit on purpose:
     * this is the one sanctioned copy at a value's entry into the message
     * plane (client API calls, test literals), and it is counted.
     */
    ValueRef(const Value &value) : ValueRef(std::string_view(value)) {}

    /** Deep-copy construction from a literal (tests, examples). */
    ValueRef(const char *value) : ValueRef(std::string_view(value)) {}

    /** Deep-copy construction from any byte view. */
    explicit ValueRef(std::string_view bytes) { assignCopy(bytes); }

    /**
     * Aliasing construction: view @p bytes inside a buffer kept alive by
     * @p owner (a transport receive slab). No bytes move; the slab lives
     * for as long as any aliasing ValueRef does.
     */
    ValueRef(std::string_view bytes, std::shared_ptr<const void> owner)
        : owner_(std::move(owner)),
          data_(bytes.data() ? bytes.data() : ""), size_(bytes.size()),
          aliased_(owner_ != nullptr)
    {}

    /** Deep copy of an arbitrary view (named for call-site clarity). */
    static ValueRef
    copyOf(std::string_view bytes)
    {
        return ValueRef(bytes);
    }

    /**
     * Take over a private block whose first @p size bytes the caller
     * already copied in (the KVS scan fills it under the entry's
     * seqlock). Counted as the value's one deep copy.
     */
    static ValueRef
    adopt(std::shared_ptr<char[]> block, size_t size)
    {
        ValueRef ref;
        if (size == 0)
            return ref;
        ValueCopyCounters::countRefCopy(size);
        ref.data_ = block.get();
        ref.size_ = size;
        ref.owner_ = std::move(block);
        return ref;
    }

    const char *data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::string_view view() const { return {data_, size_}; }
    operator std::string_view() const { return view(); }

    /** Materialize an owning string (client-facing edges only). */
    Value str() const { return Value(data_, size_); }

    /**
     * True when this ref aliases somebody else's buffer (i.e. shares
     * ownership of a slab rather than a private copy). Introspection for
     * the slab-lifetime tests.
     */
    bool aliasesExternalBuffer() const { return aliased_; }

    friend bool
    operator==(const ValueRef &a, const ValueRef &b)
    {
        return a.view() == b.view();
    }

    // C++20 rewriting derives the reversed operands and the != forms; the
    // exact-typed Value/const char* overloads exist so mixed comparisons
    // don't tie between the string_view and the implicit-ValueRef routes.
    friend bool
    operator==(const ValueRef &a, std::string_view b)
    {
        return a.view() == b;
    }

    friend bool
    operator==(const ValueRef &a, const Value &b)
    {
        return a.view() == std::string_view(b);
    }

    friend bool
    operator==(const ValueRef &a, const char *b)
    {
        return a.view() == std::string_view(b);
    }

    friend std::ostream &
    operator<<(std::ostream &os, const ValueRef &v)
    {
        return os << v.view();
    }

  private:
    void
    assignCopy(std::string_view bytes)
    {
        if (bytes.empty()) {
            data_ = "";
            size_ = 0;
            return;
        }
        auto block = std::shared_ptr<char[]>(new char[bytes.size()]);
        std::memcpy(block.get(), bytes.data(), bytes.size());
        ValueCopyCounters::countRefCopy(bytes.size());
        data_ = block.get();
        size_ = bytes.size();
        owner_ = std::move(block);
    }

    std::shared_ptr<const void> owner_;
    /** Never null: empty refs point at a static empty literal, so
     *  view()/str()/memcpy callers need no null guards. */
    const char *data_ = "";
    size_t size_ = 0;
    bool aliased_ = false;
};

} // namespace hermes

#endif // HERMES_COMMON_VALUE_REF_HH
