/**
 * @file
 * Membership views: the epoch-stamped set of live replicas every
 * membership-based protocol in this library executes against (paper §2.4).
 *
 * Nodes are operational only while they hold a valid lease on their view;
 * messages are tagged with the sender's epoch and dropped on mismatch.
 * Views change only through a reliable m-update (majority-agreed, after
 * lease expiry), which is what RmNode implements.
 */

#ifndef HERMES_MEMBERSHIP_VIEW_HH
#define HERMES_MEMBERSHIP_VIEW_HH

#include <algorithm>
#include <string>

#include "common/types.hh"
#include "net/message.hh"

namespace hermes::membership
{

/** An epoch-stamped set of live replicas. */
struct MembershipView
{
    Epoch epoch = 0;
    NodeSet live;

    bool operator==(const MembershipView &) const = default;

    /** Wire layout (net/message.hh): epoch, then a u32-counted list. */
    template <typename Ar>
    void wire(Ar &ar) { ar(epoch, net::counted<uint32_t>(live)); }

    /** @return true iff @p node is in the live set. */
    bool isLive(NodeId node) const { return contains(live, node); }

    /** Majority threshold of this view (⌊n/2⌋+1). */
    size_t quorum() const { return live.size() / 2 + 1; }

    /** The view with @p node removed and the epoch bumped. */
    MembershipView
    without(NodeId node) const
    {
        MembershipView next{epoch + 1, {}};
        for (NodeId n : live)
            if (n != node)
                next.live.push_back(n);
        return next;
    }

    /** The view with @p node added (sorted) and the epoch bumped. */
    MembershipView
    withAdded(NodeId node) const
    {
        MembershipView next{epoch + 1, live};
        if (!contains(next.live, node)) {
            next.live.push_back(node);
            std::sort(next.live.begin(), next.live.end());
        }
        return next;
    }

    std::string
    toString() const
    {
        // Appends only: GCC 12 -O3 reports a false -Werror=restrict
        // inside `const char * + std::string &&`.
        std::string s = "e";
        s += std::to_string(epoch);
        s += '{';
        for (size_t i = 0; i < live.size(); ++i) {
            if (i)
                s += ',';
            s += std::to_string(live[i]);
        }
        s += '}';
        return s;
    }
};

/** The initial view: epoch 1, nodes 0..n-1 all live. */
inline MembershipView
initialView(size_t nodes)
{
    MembershipView view{1, {}};
    for (size_t i = 0; i < nodes; ++i)
        view.live.push_back(static_cast<NodeId>(i));
    return view;
}

} // namespace hermes::membership

#endif // HERMES_MEMBERSHIP_VIEW_HH
