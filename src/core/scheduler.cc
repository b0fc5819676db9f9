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

void
Scheduler::saveState(JsonValue &out) const
{
    out = JsonValue::object();
    JsonValue slots = JsonValue::array();
    for (size_t i = 0; i < slotCounts_.size(); ++i)
        slots.append(JsonValue::string(
            wordsToHex(bits_.data() + i * planeWords_, planeWords_)));
    out.set("slots", std::move(slots));
    out.set("deposits", JsonValue::integer(static_cast<int64_t>(deposits_)));
    out.set("collisions",
            JsonValue::integer(static_cast<int64_t>(collisions_)));
}

bool
Scheduler::restoreState(const JsonValue &in)
{
    if (in.type() != JsonValue::Type::Object || !in.has("slots"))
        return false;
    const JsonValue &slots = in.at("slots");
    if (slots.type() != JsonValue::Type::Array ||
        slots.size() != slotCounts_.size())
        return false;
    // The counters are uint64 that a snapshot writes as non-negative
    // int64; anything else is no scheduler state.
    int64_t counts[2] = {0, 0};
    const char *keys[2] = {"deposits", "collisions"};
    for (int k = 0; k < 2; ++k) {
        if (!in.has(keys[k]))
            continue;
        const JsonValue &c = in.at(keys[k]);
        if (c.type() != JsonValue::Type::Int || c.asInt() < 0)
            return false;
        counts[k] = c.asInt();
    }
    std::fill(tickCounts_.begin(), tickCounts_.end(), 0);
    for (size_t i = 0; i < slotCounts_.size(); ++i) {
        uint64_t *plane = bits_.data() + i * planeWords_;
        if (slots.at(i).type() != JsonValue::Type::String ||
            !wordsFromHex(slots.at(i).asString(), plane, numAxons_))
            return false;
        slotCounts_[i] =
            static_cast<uint32_t>(BitSpan(plane, numAxons_).count());
        tickCounts_[i / instances_] += slotCounts_[i];
    }
    deposits_ = static_cast<uint64_t>(counts[0]);
    collisions_ = static_cast<uint64_t>(counts[1]);
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
