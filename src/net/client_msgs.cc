#include "net/client_msgs.hh"

namespace hermes::net
{

void
registerClientCodecs()
{
    registerMessage<ClientRequestMsg>();
    registerMessage<ClientReplyMsg>();
}

} // namespace hermes::net
