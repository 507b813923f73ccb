/**
 * @file
 * Sequence locks for lock-free readers (paper §4.1: the KVS "supports CRCW
 * using seqlocks ... beneficial as they allow for efficient lock-free
 * reads").
 *
 * The counter is even when the protected data is stable and odd while a
 * writer is mid-update. Readers snapshot the counter, copy the data, and
 * retry if the counter moved or was odd; they never block writers, and
 * writers never block readers. The data itself moves through
 * seqlockStore()/seqlockLoad(), so the racing copies are atomic.
 */

#ifndef HERMES_STORE_SEQLOCK_HH
#define HERMES_STORE_SEQLOCK_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hermes::store
{

/**
 * A seqlock version counter. Writer mutual exclusion is *not* provided
 * here — the KVS serializes writers with striped spinlocks — so beginWrite
 * simply bumps to odd.
 *
 * The counter is 32 bits, the width of Linux's `seqcount_t`, so a KVS
 * entry's counter and its 32-bit value length share one 8-byte word.
 * Wrap-around cannot fool a reader that is merely slow: it checks the
 * counter on both sides of its copy, so it accepts a torn copy only if,
 * between the two loads, the counter advanced by exactly a multiple of
 * 2^32 — the reader stalled mid-copy across exactly 2^31 (or 2·2^31, ...)
 * writes to the same key, each write bumping the counter twice. At the
 * ~100 ns a write costs that is a stall of minutes inside a copy of at
 * most one value, landing on one exact count.
 */
class Seqlock
{
  public:
    /** Reader: snapshot the counter before copying the data. */
    uint32_t
    readBegin() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /**
     * Reader: validate a copy made after readBegin().
     * @return true if the copy is consistent (no concurrent write).
     */
    bool
    readValidate(uint32_t snapshot) const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        return snapshot % 2 == 0
               && seq_.load(std::memory_order_relaxed) == snapshot;
    }

    /** Writer: enter the critical section (counter becomes odd). */
    void
    writeBegin()
    {
        seq_.fetch_add(1, std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Writer: leave the critical section (counter becomes even). */
    void
    writeEnd()
    {
        seq_.fetch_add(1, std::memory_order_release);
    }

  private:
    std::atomic<uint32_t> seq_{0};
};

/**
 * Copy @p len bytes into seqlock-guarded storage @p shared (writer side,
 * inside writeBegin/writeEnd). Readers copy the same bytes while a
 * writer may be changing them, so both sides move them as relaxed
 * atomic 8-byte words: a copy that overlapped a write is still caught by
 * readValidate(), and no access is a data race — which C++ leaves
 * undefined and ThreadSanitizer reports. @p shared must be 8-byte
 * aligned with room for @p len rounded up to a multiple of 8.
 */
inline void
seqlockStore(void *shared, const void *src, size_t len)
{
    auto *words = static_cast<uint64_t *>(shared);
    const char *in = static_cast<const char *>(src);
    size_t at = 0;
    // Whole words first: fixed-size memcpys compile to plain moves.
    for (; at + 8 <= len; at += 8, ++words) {
        uint64_t word;
        std::memcpy(&word, in + at, 8);
        std::atomic_ref<uint64_t>(*words).store(word,
                                                std::memory_order_relaxed);
    }
    if (at < len) {
        uint64_t word = 0;
        std::memcpy(&word, in + at, len - at);
        std::atomic_ref<uint64_t>(*words).store(word,
                                                std::memory_order_relaxed);
    }
}

/** Reader side of seqlockStore(): copy @p len bytes out of @p shared. */
inline void
seqlockLoad(void *dst, const void *shared, size_t len)
{
    // atomic_ref needs a non-const referent; the storage is never const.
    auto *words = static_cast<uint64_t *>(const_cast<void *>(shared));
    char *out = static_cast<char *>(dst);
    size_t at = 0;
    for (; at + 8 <= len; at += 8, ++words) {
        uint64_t word =
            std::atomic_ref<uint64_t>(*words).load(std::memory_order_relaxed);
        std::memcpy(out + at, &word, 8);
    }
    if (at < len) {
        uint64_t word =
            std::atomic_ref<uint64_t>(*words).load(std::memory_order_relaxed);
        std::memcpy(out + at, &word, len - at);
    }
}

/** Minimal test-and-test-and-set spinlock for writer striping. */
class Spinlock
{
  public:
    void
    lock()
    {
        for (;;) {
            if (!flag_.exchange(true, std::memory_order_acquire))
                return;
            while (flag_.load(std::memory_order_relaxed)) {
                // spin; writes are short (copy <=1KB)
            }
        }
    }

    void unlock() { flag_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> flag_{false};
};

/** RAII guard for Spinlock. */
class SpinGuard
{
  public:
    explicit SpinGuard(Spinlock &lock) : lock_(lock) { lock_.lock(); }
    ~SpinGuard() { lock_.unlock(); }

    SpinGuard(const SpinGuard &) = delete;
    SpinGuard &operator=(const SpinGuard &) = delete;

  private:
    Spinlock &lock_;
};

} // namespace hermes::store

#endif // HERMES_STORE_SEQLOCK_HH
