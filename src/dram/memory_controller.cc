#include "dram/memory_controller.hh"

#include <algorithm>
#include <cassert>

namespace valley {

MemoryController::MemoryController(unsigned num_banks,
                                   const DramTiming &timing_,
                                   unsigned queue_capacity)
    : timing(timing_), queueCapacity(queue_capacity), banks(num_banks),
      queuedMask(num_banks), hitMask(num_banks)
{
    assert(num_banks >= 1);
    queue.reserve(queue_capacity);
}

namespace {

/**
 * FR-FCFS keeps a row open while younger hits to it are queued, but a
 * conflicting request that has waited this long may close it anyway.
 */
constexpr Cycle kStarvationLimit = 2000;

constexpr Cycle kNever = ~Cycle{0};

} // namespace

bool
MemoryController::enqueue(const DramRequest &req, Cycle now)
{
    if (!canAccept())
        return false;
    assert(req.coord.bank < banks.size());
    DramRequest r = req;
    r.enqueued = now;
    const unsigned b = r.coord.bank;
    Bank &bank = banks[b];
    const bool first_miss = bank.queued == bank.hits;
    if (bank.queued++ == 0) {
        ++busyBanks;
        queuedMask.set(b);
    }
    if (bank.open) {
        if (bank.openRow == r.coord.row) {
            if (bank.hits++ == 0)
                hitMask.set(b);
        } else if (first_miss) {
            bank.oldestMissAt = now;
        }
        updateCommandAt(bank);
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
    if (bank.hits > 0)
        hitMask.set(b); // clear while the bank was closed
    updateCommandAt(bank);
}

bool
MemoryController::tryIssueColumn(Cycle now)
{
    if (busFreeAt > now)
        return false;
    if (!hitMask.findIf([&](std::size_t b) {
            return banks[b].readyAt <= now;
        }))
        return false;
    // The oldest hit to a ready bank issues its column access. A
    // queued request to an open bank's row is a hit, so `hits > 0`.
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const unsigned b = it->coord.bank;
        Bank &bank = banks[b];
        if (!bank.open || bank.openRow != it->coord.row ||
            bank.readyAt > now)
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
        if (--bank.hits == 0)
            hitMask.reset(b);
        if (--bank.queued == 0) {
            --busyBanks;
            queuedMask.reset(b);
        }
        updateCommandAt(bank);
        queue.erase(it);
        return true;
    }
    assert(false && "an eligible bank has a queued hit");
    return false;
}

void
MemoryController::updateCommandAt(Bank &bank) const
{
    // A closed bank activates once ready (and tRRD allows). An open
    // bank precharges for a conflicting request once ready and tRAS
    // has passed, and, while younger hits hold the row open, once
    // that request has starved.
    Cycle at = bank.readyAt;
    if (bank.open) {
        if (bank.queued == bank.hits) {
            at = kNever; // no conflicting request
        } else {
            at = std::max(at, bank.activatedAt + timing.tRAS);
            if (bank.hits > 0)
                at = std::max(at, bank.oldestMissAt + kStarvationLimit);
        }
    }
    bank.commandAt = at;
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
    if (!queuedMask.findIf([&](std::size_t b) {
            return canTakeBankCommand(banks[b], now);
        }))
        return false;

    for (const DramRequest &req : queue) {
        const unsigned b = req.coord.bank;
        Bank &bank = banks[b];
        if (bank.open && bank.openRow == req.coord.row)
            continue; // a column access will pick this up
        if (!canTakeBankCommand(bank, now))
            continue;
        if (bank.open) {
            // Conflict: close the current row.
            bank.open = false;
            bank.hits = 0;
            hitMask.reset(b);
            bank.readyAt = now + timing.tRP;
            updateCommandAt(bank);
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
