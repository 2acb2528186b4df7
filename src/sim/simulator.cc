#include "sim/simulator.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec {

template <class Self, class Ar>
void
Simulator::transfer(Self &self, Ar &a)
{
    a.section("simulator");
    a.u64(self.now_);
    a.u64(self.cyclesExecuted_);
    a.u64(self.cyclesSkipped_);
    a.u64(self.jumps_);
    a.u64(self.watchdogLastValue_);
    a.u64(self.watchdogLastProgress_);
    a.fixed(self.components_, "component count mismatch", [&](auto *c) {
        a.section(c->name());
        a.nested(*c);
    });
}

template void Simulator::transfer(const Simulator &, Serializer &);
template void Simulator::transfer(Simulator &, Deserializer &);

void
Simulator::add(Component *c)
{
    panic_if(c == nullptr, "Simulator::add(nullptr)");
    components_.push_back(c);
}

void
Simulator::setWatchdog(Cycle window, std::function<uint64_t()> probe)
{
    panic_if(window > 0 && !probe, "watchdog armed without a probe");
    watchdogWindow_ = window;
    watchdogProbe_ = std::move(probe);
    if (window > 0) {
        watchdogLastValue_ = watchdogProbe_();
        watchdogLastProgress_ = now_;
    }
}

void
Simulator::checkWatchdog()
{
    if (watchdogWindow_ == 0)
        return;
    const uint64_t value = watchdogProbe_();
    if (value != watchdogLastValue_) {
        watchdogLastValue_ = value;
        watchdogLastProgress_ = now_;
        return;
    }
    if (now_ - watchdogLastProgress_ >= watchdogWindow_) {
        fatal("livelock: no progress for {} cycles (cycle {}..{}, "
              "progress counter stuck at {})",
              now_ - watchdogLastProgress_, watchdogLastProgress_, now_,
              value);
    }
}

void
Simulator::tickDue()
{
    // A component whose cached wake lies in the future declared this
    // cycle a no-op; give it the equivalent fastForward() catch-up
    // instead of a full tick. This is the same contract the global
    // jump relies on, applied per component: blocked cores skip their
    // ROB scans while the controller executes a slot, and vice versa.
    //
    // The cached hint was computed after the previous cycle, so a
    // component ticked earlier THIS cycle may have invalidated it (a
    // core enqueuing into an idle FR-FCFS controller, whose hint
    // depends on queue emptiness). The global jump never faced this —
    // it only fired when every component slept at once — so before
    // trusting a stale hint, revalidate against live state: re-asking
    // with the previous cycle as the anchor answers "is tick(now_)
    // still a no-op given everything that already happened this
    // cycle?". Mutations by LATER-ordered components need no such
    // care: in the naive loop this component's turn precedes them
    // within the cycle, and refreshWakes() sees them before the next.
    for (size_t i = 0; i < components_.size(); ++i) {
        if (wakes_[i] <= now_ ||
            components_[i]->nextWakeCycle(now_ - 1) <= now_)
            components_[i]->tick(now_);
        else
            components_[i]->fastForward(now_, now_ + 1);
    }
}

Cycle
Simulator::refreshWakes(Cycle end)
{
    // Requery every component after the tick phase, exactly as the
    // pre-gating kernel did: cross-component mutations during this
    // cycle (a completion delivered into a sleeping core, a request
    // enqueued into an idle controller) are visible here, so a cached
    // wake can never outlive the state it was computed from. No early
    // exit: a stale conservative hint would make an idle component
    // tick spuriously on every busy cycle, which costs far more than
    // the (memoized) queries saved.
    Cycle wake = end;
    for (size_t i = 0; i < components_.size(); ++i) {
        const Cycle w =
            std::max(components_[i]->nextWakeCycle(now_), now_ + 1);
        wakes_[i] = w;
        if (w < wake)
            wake = w;
    }
    return std::max(wake, now_ + 1);
}

void
Simulator::jumpTo(Cycle wake)
{
    // The watchdog must fire at the identical cycle in both modes: a
    // jump never overshoots the stall deadline, and the landing cycle
    // is re-checked (component state is frozen across the span, so
    // the probe cannot have advanced).
    if (watchdogWindow_ > 0)
        wake = std::min(wake, watchdogLastProgress_ + watchdogWindow_);
    if (wake <= now_)
        return;
    for (Component *c : components_)
        c->fastForward(now_, wake);
    cyclesSkipped_ += wake - now_;
    ++jumps_;
    now_ = wake;
    checkWatchdog();
}

void
Simulator::run(Cycle n)
{
    const Cycle end = now_ + n;
    if (!fastForward_) {
        // Naive mode: the digest anchor. Every component ticks every
        // cycle; no hints are consulted at all.
        while (now_ < end) {
            for (Component *c : components_)
                c->tick(now_);
            ++now_;
            ++cyclesExecuted_;
            checkWatchdog();
        }
        return;
    }
    // Harness code may mutate components between run() calls (fault
    // injection, measurement boundaries); start each entry with every
    // component due, which is always safe.
    wakes_.assign(components_.size(), now_);
    while (now_ < end) {
        tickDue();
        const Cycle wake = refreshWakes(end);
        ++now_;
        ++cyclesExecuted_;
        checkWatchdog();
        if (wake > now_)
            jumpTo(wake);
    }
}

Cycle
Simulator::runUntil(const std::function<bool()> &pred, Cycle maxCycles)
{
    const Cycle start = now_;
    const Cycle end = now_ + maxCycles;
    if (!fastForward_) {
        while (now_ < end && !pred()) {
            for (Component *c : components_)
                c->tick(now_);
            ++now_;
            ++cyclesExecuted_;
            checkWatchdog();
        }
        return now_ - start;
    }
    wakes_.assign(components_.size(), now_);
    while (now_ < end && !pred()) {
        tickDue();
        const Cycle wake = refreshWakes(end);
        ++now_;
        ++cyclesExecuted_;
        checkWatchdog();
        // Component state is frozen across a skip, so pred() is too —
        // but a predicate already true here must stop the loop at this
        // exact cycle, as the naive loop would.
        if (wake > now_ && !pred())
            jumpTo(wake);
    }
    return now_ - start;
}

} // namespace memsec
