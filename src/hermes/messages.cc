#include "hermes/messages.hh"

namespace hermes::proto
{

void
registerHermesCodecs()
{
    net::registerMessage<InvMsg>();
    net::registerMessage<AckMsg>();
    net::registerMessage<ValMsg>();
    net::registerMessage<StateReqMsg>();
    net::registerMessage<StateChunkMsg>();
    net::registerMessage<EpochCheckMsg>();
    net::registerMessage<EpochCheckAckMsg>();
}

} // namespace hermes::proto
