#include "core/scheduler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace nscs {

Scheduler::Scheduler(uint32_t delay_slots, uint32_t num_axons,
                     uint32_t instances)
    : delaySlots_(delay_slots),
      instances_(instances),
      numAxons_(num_axons),
      planeWords_((num_axons + size_t{63}) / 64),
      bits_(static_cast<size_t>(delay_slots) * instances * planeWords_, 0),
      slotCounts_(static_cast<size_t>(delay_slots) * instances, 0),
      tickCounts_(delay_slots, 0)
{
    NSCS_ASSERT(delay_slots >= 2, "scheduler needs >= 2 slots");
    NSCS_ASSERT(instances >= 1, "scheduler needs >= 1 instance");
}

void
Scheduler::clearSlot(uint64_t tick, uint32_t inst)
{
    size_t idx = planeIndex(tick, inst);
    if (slotCounts_[idx] == 0)
        return;
    std::fill_n(bits_.data() + idx * planeWords_, planeWords_, 0);
    tickCounts_[tick % delaySlots_] -= slotCounts_[idx];
    slotCounts_[idx] = 0;
}

void
Scheduler::clearTickSlots(uint64_t tick)
{
    for (uint32_t inst = 0; inst < instances_; ++inst)
        clearSlot(tick, inst);
}

void
Scheduler::reset()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    std::fill(slotCounts_.begin(), slotCounts_.end(), 0);
    std::fill(tickCounts_.begin(), tickCounts_.end(), 0);
    deposits_ = 0;
    collisions_ = 0;
}

const CounterField<Scheduler> Scheduler::kCounterFields[2] = {
    {"deposits", &Scheduler::deposits_},
    {"collisions", &Scheduler::collisions_},
};

void
Scheduler::saveState(JsonValue &out) const
{
    out = countersToJson(*this, kCounterFields);
    JsonValue slots = JsonValue::array();
    for (size_t i = 0; i < slotCounts_.size(); ++i)
        slots.append(JsonValue::string(
            wordsToHex(bits_.data() + i * planeWords_, planeWords_)));
    out.set("slots", std::move(slots));
}

bool
Scheduler::restoreState(const JsonValue &in)
{
    if (!in.has("slots") || !readCounters(in, *this, kCounterFields))
        return false;
    const JsonValue &slots = in.at("slots");
    if (slots.type() != JsonValue::Type::Array ||
        slots.size() != slotCounts_.size())
        return false;
    std::fill(tickCounts_.begin(), tickCounts_.end(), 0);
    std::string hex;
    for (size_t i = 0; i < slotCounts_.size(); ++i) {
        uint64_t *plane = bits_.data() + i * planeWords_;
        if (!readString(slots.at(i), hex) ||
            !wordsFromHex(hex, plane, numAxons_))
            return false;
        slotCounts_[i] =
            static_cast<uint32_t>(BitSpan(plane, numAxons_).count());
        tickCounts_[i / instances_] += slotCounts_[i];
    }
    return true;
}

size_t
Scheduler::footprintBytes() const
{
    size_t bytes = sizeof(Scheduler);
    bytes += bits_.capacity() * sizeof(uint64_t);
    bytes += slotCounts_.capacity() * sizeof(uint32_t);
    bytes += tickCounts_.capacity() * sizeof(uint32_t);
    return bytes;
}

} // namespace nscs
