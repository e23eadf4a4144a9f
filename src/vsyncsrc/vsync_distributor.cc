#include "vsyncsrc/vsync_distributor.h"

#include <algorithm>

#include "sim/lane.h"
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
                                   LaneId lane)
{
    // The distributor is shared state; a request issued during parallel
    // lane execution is deferred to the barrier, where deferred ports
    // are applied in the canonical serial dispatch order — so the batch
    // a later edge delivers carries the requests in the same order a
    // serial run would have appended them. The lane is passed explicitly
    // (not read from the ambient scope): serial dispatch does not set
    // ambient lanes, and the request's lane must be identical in serial
    // and parallel runs for the delivery structure to match.
    if (LaneExecContext *ctx = current_lane_ctx()) {
        lane_defer_port(*ctx,
                        [this, ch, lane, fn = std::move(fn)]() mutable {
                            pending_[int(ch)].push_back(
                                Pending{lane, std::move(fn)});
                        });
        return;
    }
    pending_[int(ch)].push_back(Pending{lane, std::move(fn)});
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
    // The free list is shared state: a per-lane delivery running inside
    // a parallel lane window returns its slot at the barrier.
    if (LaneExecContext *ctx = current_lane_ctx()) {
        lane_defer_port(*ctx,
                        [this, batch] { free_batches_.push_back(batch); });
        return;
    }
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
        if (!per_lane_delivery_) {
            const std::uint32_t b = acquire_batch();
            batches_[b].swap(requests); // requests takes the spare vector
            sim_.events().schedule(
                deliver_at, [this, sw, b] { deliver(sw, b); },
                EventPriority::kVsyncDist);
            continue;
        }
        // Per-lane fan-out: one delivery event per requester lane, in
        // order of first request, each tagged with its lane so the
        // parallel dispatcher can run the surfaces' frame starts
        // concurrently. Request order is preserved within a lane.
        lane_order_.clear();
        for (const Pending &p : requests) {
            if (std::find(lane_order_.begin(), lane_order_.end(),
                          p.lane) == lane_order_.end())
                lane_order_.push_back(p.lane);
        }
        for (LaneId lane : lane_order_) {
            const std::uint32_t b = acquire_batch();
            for (Pending &p : requests) {
                if (p.lane == lane)
                    batches_[b].push_back(std::move(p));
            }
            LaneScope scope(lane);
            sim_.events().schedule(
                deliver_at, [this, sw, b] { deliver(sw, b); },
                EventPriority::kVsyncDist);
        }
        requests.clear();
    }
}

} // namespace dvs
