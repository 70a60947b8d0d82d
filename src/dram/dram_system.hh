/**
 * @file
 * The multi-channel DRAM system: one FR-FCFS controller per channel
 * (conventional GDDR5) or per vault (3D-stacked).
 */

#ifndef VALLEY_DRAM_DRAM_SYSTEM_HH
#define VALLEY_DRAM_DRAM_SYSTEM_HH

#include <vector>

#include "dram/memory_controller.hh"

namespace valley {

/**
 * Aggregates the per-channel controllers and exposes the sampling
 * hooks for the channel/bank-level parallelism metrics (Fig. 14).
 * The busy-channel and busy-bank counts are kept up to date at every
 * enqueue and tick, so sampling them every cycle costs O(1).
 */
class DramSystem
{
  public:
    DramSystem(unsigned num_channels, unsigned banks_per_channel,
               const DramTiming &timing, unsigned queue_capacity = 64);

    /** Queue admission test for a channel. */
    bool
    canAccept(unsigned channel) const
    {
        return controllers[channel].canAccept();
    }

    /** Enqueue a transaction on its channel (false when full). */
    bool
    enqueue(const DramRequest &req, Cycle now)
    {
        MemoryController &mc = controllers[req.coord.channel];
        const bool was_idle = mc.pending() == 0;
        const unsigned banks_before = mc.banksWithPending();
        if (!mc.enqueue(req, now))
            return false;
        busyChannels += was_idle;
        busyBanks += mc.banksWithPending() - banks_before;
        return true;
    }

    /** Advance all channels one DRAM cycle; collect completions. */
    void
    tick(Cycle now, std::vector<DramCompletion> &done)
    {
        for (auto &mc : controllers) {
            if (mc.pending() == 0)
                continue; // an idle controller's tick is a no-op
            const unsigned banks_before = mc.banksWithPending();
            mc.tick(now, done);
            busyBanks -= banks_before - mc.banksWithPending();
            busyChannels -= mc.pending() == 0;
        }
    }

    unsigned
    numChannels() const
    {
        return static_cast<unsigned>(controllers.size());
    }

    const MemoryController &
    channel(unsigned c) const
    {
        return controllers[c];
    }

    /** Channels with >= 1 outstanding request (Fig. 14b sampling). */
    unsigned channelsWithPending() const { return busyChannels; }

    /** Sum over channels of banks with pending requests (Fig. 14c). */
    unsigned banksWithPending() const { return busyBanks; }

    /** Total outstanding transactions. */
    unsigned totalPending() const;

    /** Aggregated counters over all channels. */
    DramChannelStats totalStats() const;

  private:
    std::vector<MemoryController> controllers;
    unsigned busyChannels = 0; ///< controllers with pending() > 0
    unsigned busyBanks = 0;    ///< sum of banksWithPending()
};

} // namespace valley

#endif // VALLEY_DRAM_DRAM_SYSTEM_HH
