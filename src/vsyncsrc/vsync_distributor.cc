#include "vsyncsrc/vsync_distributor.h"

#include <algorithm>

#include "sim/logging.h"

namespace dvs {

VsyncDistributor::VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw)
    : sim_(sim), model_(hw.period())
{
    hw.add_listener([this](const VsyncEdge &e) { on_edge(e); });
}

void
VsyncDistributor::set_offset(VsyncChannel ch, Time offset)
{
    if (offset < 0)
        fatal("vsync channel offsets must be >= 0");
    offsets_[int(ch)] = offset;
}

Time
VsyncDistributor::offset(VsyncChannel ch) const
{
    return offsets_[int(ch)];
}

void
VsyncDistributor::request_callback(VsyncChannel ch, Callback fn,
                                   EventTag tag)
{
    pending_[int(ch)].push_back(Pending{tag, std::move(fn)});
}

std::size_t
VsyncDistributor::pending(VsyncChannel ch) const
{
    return pending_[int(ch)].size();
}

std::uint32_t
VsyncDistributor::acquire_batch()
{
    if (!free_batches_.empty()) {
        const std::uint32_t b = free_batches_.back();
        free_batches_.pop_back();
        return b;
    }
    batches_.emplace_back();
    return std::uint32_t(batches_.size() - 1);
}

void
VsyncDistributor::deliver(const SwVsync &sw, std::uint32_t batch)
{
    for (std::size_t k = 0; k < batches_[batch].size(); ++k)
        batches_[batch][k].fn(sw);
    batches_[batch].clear();
    free_batches_.push_back(batch);
}

void
VsyncDistributor::on_edge(const VsyncEdge &edge)
{
    model_.add_sample(edge.timestamp);

    for (int ch = 0; ch < kNumVsyncChannels; ++ch) {
        std::vector<Pending> &requests = pending_[ch];
        if (requests.empty())
            continue;
        // Snapshot and clear: callbacks requested during delivery belong
        // to the next edge.
        const Time deliver_at = edge.timestamp + offsets_[ch];
        const SwVsync sw{edge.timestamp, deliver_at, edge.index,
                         edge.rate_hz};
        if (!per_tag_delivery_) {
            const std::uint32_t b = acquire_batch();
            batches_[b].swap(requests); // requests takes the spare vector
            sim_.events().schedule(
                deliver_at, [this, sw, b] { deliver(sw, b); },
                EventPriority::kVsyncDist);
            continue;
        }
        // Per-tag fan-out: one delivery event per requester tag, in
        // order of first request, each carrying its tag. Request order
        // is preserved within a tag.
        tag_order_.clear();
        for (const Pending &p : requests) {
            if (std::find(tag_order_.begin(), tag_order_.end(), p.tag) ==
                tag_order_.end())
                tag_order_.push_back(p.tag);
        }
        for (EventTag tag : tag_order_) {
            const std::uint32_t b = acquire_batch();
            for (Pending &p : requests) {
                if (p.tag == tag)
                    batches_[b].push_back(std::move(p));
            }
            sim_.events().schedule(
                deliver_at, [this, sw, b] { deliver(sw, b); },
                EventPriority::kVsyncDist, tag);
        }
        requests.clear();
    }
}

} // namespace dvs
