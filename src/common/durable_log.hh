/**
 * @file
 * DurableLog: what a transport needs to know of a replica's write-ahead
 * log to hold each outbound frame until the records it depends on are
 * durable. The log (store::Wal) implements it; the TCP transport reads
 * it; neither module depends on the other.
 *
 * Records are numbered 1, 2, 3 … in append order. "Durable up to n" is
 * cumulative, like VAL's DATA_ACK offset: every record numbered n or
 * less is on disk (per the log's fsync policy).
 */

#ifndef HERMES_COMMON_DURABLE_LOG_HH
#define HERMES_COMMON_DURABLE_LOG_HH

#include <cstdint>
#include <functional>

namespace hermes
{

class DurableLog
{
  public:
    virtual ~DurableLog() = default;

    /** Number of the last record appended (0: none). Owner thread only. */
    virtual uint64_t appendedSeq() const = 0;

    /**
     * Owner thread, at the transport's poll boundary (Env::flush): close
     * the group-commit window, committing its records or handing them
     * to the writer thread.
     */
    virtual void flush() = 0;

    /** Every record up to this number is durable. Any thread. */
    virtual uint64_t durableSeq() const = 0;

    /**
     * Owner thread: tell the log's owner that records up to @p seq may
     * be treated as durable (the transport passes durableSeq(); its
     * planted-bug switch passes appendedSeq()). Repeats are no-ops.
     */
    virtual void deliverDurable(uint64_t seq) = 0;

    /**
     * Block until durableSeq() >= @p seq. Not from the owner thread of a
     * log without a writer: only the owner's own commit advances it.
     */
    virtual void waitDurable(uint64_t seq) = 0;

    /**
     * Commit on a writer thread from now on: the owner's flush hands
     * each window's records over instead of writing them, and the
     * writer calls @p wake (from its own thread) every time
     * durableSeq() advances.
     */
    virtual void startWriter(std::function<void()> wake) = 0;
};

} // namespace hermes

#endif // HERMES_COMMON_DURABLE_LOG_HH
