#include "noc/crossbar.hh"

#include <bit>
#include <cassert>

namespace valley {

Crossbar::Crossbar(unsigned inputs_, unsigned outputs_,
                   unsigned channel_bytes, unsigned queue_depth)
    : inputs(inputs_), outputs(outputs_), channelBytes(channel_bytes),
      queueDepth(queue_depth), maskWords((inputs_ + 63) / 64),
      inQueue(inputs_), outPort(outputs_),
      headMask(std::size_t{outputs_} * maskWords, 0), wanted(outputs_),
      busy(outputs_)
{
    assert(inputs >= 1 && outputs >= 1 && channelBytes >= 1);
}

void
Crossbar::markHead(unsigned in)
{
    if (inQueue[in].empty())
        return;
    const unsigned out = inQueue[in].front().output;
    headMask[std::size_t{out} * maskWords + in / 64] |=
        std::uint64_t{1} << (in % 64);
    wanted.set(out);
}

int
Crossbar::pickInput(unsigned out) const
{
    const std::uint64_t *mask = &headMask[std::size_t{out} * maskWords];
    const std::uint64_t from_rr = ~std::uint64_t{0} << (rrPointer % 64);
    // Inputs rrPointer..inputs-1 first, then 0..rrPointer-1: start in
    // the pointer's word at the pointer, wrap around the other words,
    // and end in the pointer's word below the pointer.
    unsigned w = rrPointer / 64;
    for (unsigned i = 0; i <= maskWords; ++i) {
        std::uint64_t m = mask[w];
        if (i == 0)
            m &= from_rr;
        else if (i == maskWords)
            m &= ~from_rr;
        if (m)
            return static_cast<int>(w * 64 + std::countr_zero(m));
        if (++w == maskWords)
            w = 0;
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
    busy.findIf([&](std::size_t out) {
        const unsigned o = static_cast<unsigned>(out);
        OutputPort &port = outPort[o];
        if (port.busyUntil <= now) {
            busy.reset(o);
            --transferring;
            ++stats_.packets;
            stats_.flits += port.current.flits;
            stats_.latencySum += now - port.current.injected;
            done.push_back(
                NocDelivery{o, port.current.tag, now,
                            port.current.injected});
        }
        return false;
    });

    // Arbitration: each free output some input's head packet targets
    // picks one such input, in ascending output order. The
    // round-robin start pointer rotates each cycle for fairness across
    // SMs.
    for (std::size_t out = BitMask::firstAndNot(wanted, busy, 0);
         out != BitMask::npos;
         out = BitMask::firstAndNot(wanted, busy, out + 1)) {
        const unsigned o = static_cast<unsigned>(out);
        OutputPort &port = outPort[o];
        const int pick = pickInput(o);
        assert(pick >= 0 && "a wanted output has a head targeting it");
        const unsigned in = static_cast<unsigned>(pick);
        const Packet &head = inQueue[in].front();
        port.current = head;
        port.busyUntil = now + head.flits;
        busy.set(o);
        ++transferring;
        std::uint64_t *mask = &headMask[std::size_t{o} * maskWords];
        mask[in / 64] &= ~(std::uint64_t{1} << (in % 64));
        bool still_wanted = false;
        for (unsigned w = 0; w < maskWords; ++w)
            still_wanted |= mask[w] != 0;
        if (!still_wanted)
            wanted.reset(o);
        inQueue[in].pop_front();
        --queued;
        markHead(in);
    }
    if (++rrPointer == inputs)
        rrPointer = 0;
}

} // namespace valley
