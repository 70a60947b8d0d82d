#include "dram/memory_controller.hh"

#include <algorithm>
#include <cassert>

namespace valley {

MemoryController::MemoryController(unsigned num_banks,
                                   const DramTiming &timing_,
                                   unsigned queue_capacity)
    : timing(timing_), queueCapacity(queue_capacity), banks(num_banks),
      eligible(num_banks, 0)
{
    assert(num_banks >= 1);
}

namespace {

/**
 * FR-FCFS keeps a row open while younger hits to it are queued, but a
 * conflicting request that has waited this long may close it anyway.
 */
constexpr Cycle kStarvationLimit = 2000;

} // namespace

bool
MemoryController::enqueue(const DramRequest &req, Cycle now)
{
    if (!canAccept())
        return false;
    assert(req.coord.bank < banks.size());
    DramRequest r = req;
    r.enqueued = now;
    Bank &bank = banks[r.coord.bank];
    const bool first_miss = bank.queued == bank.hits;
    if (bank.queued++ == 0)
        ++busyBanks;
    if (bank.open) {
        if (bank.openRow == r.coord.row)
            ++bank.hits;
        else if (first_miss)
            bank.oldestMissAt = now;
    }
    queue.push_back(r);
    return true;
}

void
MemoryController::activate(unsigned b, unsigned row, Cycle now)
{
    Bank &bank = banks[b];
    bank.open = true;
    bank.openRow = row;
    bank.readyAt = now + timing.tRCD;
    bank.activatedAt = now;
    // Requests queued while the bank was closed become hits or misses
    // only now: recount them in one pass.
    bank.hits = 0;
    bool miss_seen = false;
    for (const DramRequest &req : queue) {
        if (req.coord.bank != b)
            continue;
        if (req.coord.row == row) {
            ++bank.hits;
        } else if (!miss_seen) {
            bank.oldestMissAt = req.enqueued;
            miss_seen = true;
        }
    }
}

bool
MemoryController::tryIssueColumn(Cycle now)
{
    if (busFreeAt > now)
        return false;
    bool any = false;
    for (std::size_t b = 0; b < banks.size(); ++b) {
        eligible[b] = banks[b].hits > 0 && banks[b].readyAt <= now;
        any |= eligible[b] != 0;
    }
    if (!any)
        return false;
    // The oldest hit to a ready bank issues its column access.
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        Bank &bank = banks[it->coord.bank];
        if (!eligible[it->coord.bank] || bank.openRow != it->coord.row)
            continue;
        // Column access: reserve the bus, schedule completion.
        busFreeAt = now + timing.tBurst;
        stats_.busBusyCycles += timing.tBurst;
        const Cycle done = now + timing.tCL + timing.tBurst;
        // Write recovery keeps the bank busy slightly longer.
        bank.readyAt = it->write ? now + timing.tBurst + timing.tWR
                                 : now + timing.tBurst;
        if (it->write)
            stats_.writes++;
        else
            stats_.reads++;
        inflight.push_back(
            Inflight{it->tag, done, it->write, it->enqueued});
        --bank.hits;
        if (--bank.queued == 0)
            --busyBanks;
        queue.erase(it);
        return true;
    }
    assert(false && "an eligible bank has a queued hit");
    return false;
}

bool
MemoryController::tryBankCommand(Cycle now)
{
    // FCFS over requests whose bank can make progress. Whether a bank
    // can is a property of the bank alone: a closed bank activates
    // its oldest request's row (tRRD permitting); an open bank
    // precharges for its oldest conflicting request once tRAS has
    // passed and no younger hit holds the row open (unless that
    // request has starved). A request counts as a row miss once,
    // when its row is activated.
    bool any = false;
    for (std::size_t b = 0; b < banks.size(); ++b) {
        const Bank &bank = banks[b];
        bool ok = false;
        if (bank.queued > 0 && bank.readyAt <= now) {
            if (!bank.open)
                ok = nextActivateAt <= now;
            else
                ok = bank.queued > bank.hits &&
                     (bank.hits == 0 ||
                      now - bank.oldestMissAt >= kStarvationLimit) &&
                     bank.activatedAt + timing.tRAS <= now;
        }
        eligible[b] = ok;
        any |= ok;
    }
    if (!any)
        return false;

    for (const DramRequest &req : queue) {
        const unsigned b = req.coord.bank;
        if (!eligible[b])
            continue;
        Bank &bank = banks[b];
        if (bank.open) {
            if (bank.openRow == req.coord.row)
                continue; // a column access will pick this up
            // Conflict: close the current row.
            bank.open = false;
            bank.hits = 0;
            bank.readyAt = now + timing.tRP;
            stats_.precharges++;
            return true;
        }
        activate(b, req.coord.row, now);
        nextActivateAt = now + timing.tRRD;
        stats_.activations++;
        stats_.rowMisses++;
        return true;
    }
    assert(false && "an eligible bank has a queued request to serve");
    return false;
}

void
MemoryController::tick(Cycle now, std::vector<DramCompletion> &done)
{
    // Retire finished bursts.
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].doneAt <= now) {
            if (!inflight[i].write) {
                stats_.latencySum += now - inflight[i].enqueued;
                done.push_back(DramCompletion{inflight[i].tag, now,
                                              false});
            }
            inflight[i] = inflight.back();
            inflight.pop_back();
        } else {
            ++i;
        }
    }

    // One command per cycle: column accesses take priority (FR), then
    // bank management for the oldest blocked request (FCFS).
    if (!tryIssueColumn(now))
        tryBankCommand(now);
}

} // namespace valley
