#include "dram/dram_system.hh"

namespace valley {

DramSystem::DramSystem(unsigned num_channels, unsigned banks_per_channel,
                       const DramTiming &timing, unsigned queue_capacity)
{
    controllers.reserve(num_channels);
    for (unsigned c = 0; c < num_channels; ++c)
        controllers.emplace_back(banks_per_channel, timing,
                                 queue_capacity);
}

unsigned
DramSystem::totalPending() const
{
    unsigned n = 0;
    for (const auto &mc : controllers)
        n += mc.pending();
    return n;
}

DramChannelStats
DramSystem::totalStats() const
{
    DramChannelStats total;
    for (const auto &mc : controllers) {
        const DramChannelStats &s = mc.stats();
        total.reads += s.reads;
        total.writes += s.writes;
        total.rowMisses += s.rowMisses;
        total.activations += s.activations;
        total.precharges += s.precharges;
        total.busBusyCycles += s.busBusyCycles;
        total.latencySum += s.latencySum;
    }
    return total;
}

} // namespace valley
