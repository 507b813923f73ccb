/**
 * @file
 * Per-key logical timestamps (Lamport clocks), the ordering backbone of
 * Hermes (paper §3.1).
 *
 * A timestamp is the lexicographically ordered tuple [version, cid]: the
 * key's version number, incremented on every write, tie-broken by the node
 * id of the write's coordinator. Two writes are *concurrent* when issued by
 * different coordinators with the same version; the cid then imposes a
 * total order, which is what lets every replica locally agree on a single
 * global order of writes to a key and resolve conflicts in place.
 */

#ifndef HERMES_COMMON_TIMESTAMP_HH
#define HERMES_COMMON_TIMESTAMP_HH

#include <compare>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/types.hh"

namespace hermes
{

/**
 * Lamport logical timestamp: lexicographic [version, cid].
 *
 * The default-constructed timestamp {0, 0} is the "genesis" timestamp every
 * key starts from; any real write produces a strictly larger timestamp.
 */
struct Timestamp
{
    /** Per-key version; incremented by every update. */
    uint32_t version = 0;
    /** Coordinator (possibly virtual, see optimization O2) node id. */
    uint32_t cid = 0;

    /** Wire layout (net/message.hh): version, then cid. */
    template <typename Ar>
    void wire(Ar &ar) { ar(version, cid); }

    /** Lexicographic order: version first, coordinator id as tie-break. */
    auto operator<=>(const Timestamp &) const = default;

    /** @return true for the genesis timestamp no write has touched yet. */
    bool isGenesis() const { return version == 0 && cid == 0; }

    /**
     * The timestamp a coordinator assigns to a plain write following this
     * one. RMWs bump the version by one and writes by two (paper §3.6) so
     * that a write racing an RMW always carries the higher timestamp and
     * the RMW is the one that aborts; see @ref nextRmw.
     *
     * @param coordinator (virtual) id of the write's coordinator
     */
    Timestamp
    nextWrite(uint32_t coordinator) const
    {
        return {version + 2, coordinator};
    }

    /** The timestamp a coordinator assigns to an RMW following this one. */
    Timestamp
    nextRmw(uint32_t coordinator) const
    {
        return {version + 1, coordinator};
    }

    /** Human-readable "[v,cid]" form for traces and test failures. */
    std::string
    toString() const
    {
        // snprintf, not a `"[" + std::to_string(...)` chain: GCC 12 -O3
        // reports a false -Werror=restrict inside that operator+ chain.
        char buf[sizeof("[4294967295,4294967295]")];
        int len = std::snprintf(buf, sizeof(buf), "[%u,%u]",
                                static_cast<unsigned>(version),
                                static_cast<unsigned>(cid));
        return std::string(buf, static_cast<size_t>(len));
    }
};

} // namespace hermes

#endif // HERMES_COMMON_TIMESTAMP_HH
