/**
 * @file
 * Input-queued crossbar network-on-chip (Table I: 12x8 crossbar,
 * 700 MHz, 32-byte channels).
 *
 * Packets carry a byte size; a packet occupies its output port for
 * ceil(bytes / channelBytes) NoC cycles. Each output port arbitrates
 * round-robin over the input queues whose head packet targets it —
 * the classic input-queued crossbar with head-of-line blocking, which
 * is exactly the congestion behavior that makes LLC-slice imbalance
 * expensive (paper Section VI-B, Fig. 13a).
 *
 * Arbitration reads a per-output bitmask of the inputs whose head
 * packet targets that output (one 64-bit word per 64 inputs, so any
 * input count works). A free output takes the first set bit at or
 * after the round-robin pointer, wrapping once — the same input a
 * scan from the pointer would find. Masks change only when a head
 * does (inject into an empty queue, or a pop), and outputs are still
 * served in ascending order, so an input whose head was just taken
 * can send its next packet to a higher-numbered output in the same
 * tick.
 *
 * Two masks over the outputs, `wanted` (some head targets it) and
 * `busy` (mid-transfer), let a tick visit only busy outputs to finish
 * transfers and only wanted, free outputs to arbitrate; the walk
 * reads them live, so the same-tick rule above still holds. Input
 * queues are flat ring buffers.
 */

#ifndef VALLEY_NOC_CROSSBAR_HH
#define VALLEY_NOC_CROSSBAR_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bit_mask.hh"
#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace valley {

/** A packet delivered by the crossbar. */
struct NocDelivery
{
    unsigned output = 0;
    std::uint64_t tag = 0;
    Cycle delivered = 0; ///< NoC cycle the tail flit arrived
    Cycle injected = 0;
};

/** Aggregate NoC statistics. */
struct NocStats
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t latencySum = 0; ///< inject-to-delivery, NoC cycles
    std::uint64_t rejects = 0;    ///< injections refused (queue full)

    double
    avgLatency() const
    {
        return packets ? static_cast<double>(latencySum) /
                             static_cast<double>(packets)
                       : 0.0;
    }
};

/**
 * One direction of the interconnect (request or reply network).
 */
class Crossbar
{
  public:
    /**
     * @param inputs        input ports (SMs for requests)
     * @param outputs       output ports (LLC slices for requests)
     * @param channel_bytes flit width (32 B in Table I)
     * @param queue_depth   per-input packet queue depth
     */
    Crossbar(unsigned inputs, unsigned outputs, unsigned channel_bytes,
             unsigned queue_depth = 8);

    /** True iff input port `in` can take another packet. */
    bool canInject(unsigned in) const
    {
        assert(in < inputs);
        return inQueue[in].size() < queueDepth;
    }

    /**
     * Inject a packet; returns false (rejected) when the input queue
     * is full.
     */
    bool inject(unsigned in, unsigned out, unsigned bytes,
                std::uint64_t tag, Cycle now);

    /**
     * Advance one NoC cycle; deliveries completing this cycle are
     * appended to `done`.
     */
    void tick(Cycle now, std::vector<NocDelivery> &done);

    /** Packets buffered or in flight. */
    unsigned pending() const { return queued + transferring; }

    const NocStats &stats() const { return stats_; }

    unsigned numInputs() const { return inputs; }
    unsigned numOutputs() const { return outputs; }

  private:
    struct Packet
    {
        unsigned output;
        unsigned flits;
        std::uint64_t tag;
        Cycle injected;
    };

    struct OutputPort
    {
        Cycle busyUntil = 0;
        Packet current{};
    };

    /** Mark input `in`'s current head (if any) in its output's mask. */
    void markHead(unsigned in);
    /** Round-robin pick among inputs heading to `out`; -1 if none. */
    int pickInput(unsigned out) const;

    unsigned inputs;
    unsigned outputs;
    unsigned channelBytes;
    unsigned queueDepth;
    unsigned maskWords; ///< 64-bit words per output mask
    std::vector<RingBuffer<Packet>> inQueue;
    std::vector<OutputPort> outPort;
    /** Output o's mask is words [o*maskWords, (o+1)*maskWords). */
    std::vector<std::uint64_t> headMask;
    BitMask wanted; ///< outputs whose head mask is not empty
    BitMask busy;   ///< outputs mid-transfer
    unsigned rrPointer = 0;
    unsigned queued = 0;       ///< packets in input queues
    unsigned transferring = 0; ///< output ports mid-transfer
    NocStats stats_;
};

} // namespace valley

#endif // VALLEY_NOC_CROSSBAR_HH
