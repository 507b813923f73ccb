#include "membership/messages.hh"

namespace hermes::membership
{

void
registerRmCodecs()
{
    net::registerMessage<RmHeartbeatMsg>();
    net::registerMessage<RmPrepareMsg>();
    net::registerMessage<RmPromiseMsg>();
    net::registerMessage<RmAcceptMsg>();
    net::registerMessage<RmAcceptedMsg>();
    net::registerMessage<RmDecideMsg>();
}

} // namespace hermes::membership
