#include "noc/crossbar.hh"

#include <bit>
#include <cassert>

namespace valley {

Crossbar::Crossbar(unsigned inputs_, unsigned outputs_,
                   unsigned channel_bytes, unsigned queue_depth)
    : inputs(inputs_), outputs(outputs_), channelBytes(channel_bytes),
      queueDepth(queue_depth), maskWords((inputs_ + 63) / 64),
      inQueue(inputs_), outPort(outputs_),
      headMask(std::size_t{outputs_} * maskWords, 0)
{
    assert(inputs >= 1 && outputs >= 1 && channelBytes >= 1);
}

bool
Crossbar::canInject(unsigned in) const
{
    assert(in < inputs);
    return inQueue[in].size() < queueDepth;
}

void
Crossbar::markHead(unsigned in)
{
    if (inQueue[in].empty())
        return;
    const unsigned out = inQueue[in].front().output;
    headMask[std::size_t{out} * maskWords + in / 64] |=
        std::uint64_t{1} << (in % 64);
}

int
Crossbar::pickInput(unsigned out) const
{
    const std::uint64_t *mask = &headMask[std::size_t{out} * maskWords];
    const unsigned w0 = rrPointer / 64;
    const std::uint64_t from_rr = ~std::uint64_t{0} << (rrPointer % 64);
    // Inputs rrPointer..inputs-1 first, then 0..rrPointer-1: start in
    // the pointer's word at the pointer, wrap around the other words,
    // and end in the pointer's word below the pointer.
    for (unsigned i = 0; i <= maskWords; ++i) {
        const unsigned w = (w0 + i) % maskWords;
        std::uint64_t m = mask[w];
        if (i == 0)
            m &= from_rr;
        else if (i == maskWords)
            m &= ~from_rr;
        if (m)
            return static_cast<int>(w * 64 + std::countr_zero(m));
    }
    return -1;
}

bool
Crossbar::inject(unsigned in, unsigned out, unsigned bytes,
                 std::uint64_t tag, Cycle now)
{
    assert(in < inputs && out < outputs);
    if (!canInject(in)) {
        ++stats_.rejects;
        return false;
    }
    Packet p;
    p.output = out;
    p.flits = (bytes + channelBytes - 1) / channelBytes;
    if (p.flits == 0)
        p.flits = 1;
    p.tag = tag;
    p.injected = now;
    inQueue[in].push_back(p);
    ++queued;
    if (inQueue[in].size() == 1)
        markHead(in);
    return true;
}

void
Crossbar::tick(Cycle now, std::vector<NocDelivery> &done)
{
    // Complete transfers whose tail flit has passed.
    for (unsigned o = 0; o < outputs && transferring > 0; ++o) {
        OutputPort &port = outPort[o];
        if (port.transferring && port.busyUntil <= now) {
            port.transferring = false;
            --transferring;
            ++stats_.packets;
            stats_.flits += port.current.flits;
            stats_.latencySum += now - port.current.injected;
            done.push_back(
                NocDelivery{o, port.current.tag, now,
                            port.current.injected});
        }
    }

    // Arbitration: each free output picks one input whose head packet
    // targets it. The round-robin start pointer rotates each cycle for
    // fairness across SMs.
    for (unsigned o = 0; o < outputs && queued > 0; ++o) {
        OutputPort &port = outPort[o];
        if (port.transferring)
            continue;
        const int pick = pickInput(o);
        if (pick < 0)
            continue; // head-of-line blocking or no traffic
        const unsigned in = static_cast<unsigned>(pick);
        const Packet &head = inQueue[in].front();
        port.current = head;
        port.transferring = true;
        port.busyUntil = now + head.flits;
        ++transferring;
        headMask[std::size_t{o} * maskWords + in / 64] &=
            ~(std::uint64_t{1} << (in % 64));
        inQueue[in].pop_front();
        --queued;
        markHead(in);
    }
    rrPointer = (rrPointer + 1) % inputs;
}

} // namespace valley
