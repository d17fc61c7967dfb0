#include "server.hh"

#include <cstring>
#include <utility>

#include "bitstream/codec.hh"
#include "core/pipeline.hh"
#include "nn/quantize.hh"
#include "util/alloc_guard.hh"
#include "util/check.hh"

namespace leca::serve {

// ---- FrameTicket ---------------------------------------------------------

const FrameResult &
FrameTicket::wait()
{
    UniqueLock lock(_mutex);
    // Explicit wait loop (not a predicate lambda): the thread-safety
    // analysis cannot see into lambdas, so the guarded read of _ready
    // must happen in this scope where the capability is visibly held.
    while (!_ready)
        _done.wait(lock.raw());
    return _result;
}

bool
FrameTicket::done() const
{
    MutexLock lock(_mutex);
    return _ready;
}

void
FrameTicket::arm(std::uint64_t session, std::uint64_t frame_index)
{
    MutexLock lock(_mutex);
    LECA_CHECK(!_pending, "FrameTicket resubmitted while still pending "
               "(session ", _result.session, ", frame ",
               _result.frameIndex, ")");
    _pending = true;
    _ready = false;
    _result.status = ServeStatus::Closed;
    _result.session = session;
    _result.frameIndex = frame_index;
    _result.argmax = -1;
    _result.wire.clear();
    _result.queueNanos = _result.batchNanos = _result.totalNanos = 0;
    _result.batchSize = 0;
}

// ---- ServerOptions -------------------------------------------------------

void
ServerOptions::validate() const
{
    LECA_CHECK(queueCapacity >= 1 && queueCapacity <= (1 << 20),
               "serve queue capacity ", queueCapacity,
               " outside [1, 2^20]");
    LECA_CHECK(maxBatch >= 1 && maxBatch <= 1024, "serve max batch ",
               maxBatch, " outside [1, 1024]");
    LECA_CHECK(maxWaitMicros >= 0 && maxWaitMicros <= 10'000'000,
               "serve max coalescing wait ", maxWaitMicros,
               " µs outside [0, 10s]");
}

// ---- Server --------------------------------------------------------------

Server::Server(Backend backend, std::vector<int> frame_shape,
               const ServerOptions &options, WireEncoder wire)
    : _backend(std::move(backend)), _wire(std::move(wire)),
      _frameShape(std::move(frame_shape)), _frameElems(0),
      _options(options), _noise(options.sensor),
      _queue(options.queueCapacity), _sessionRoot(options.seed)
{
    _options.validate();
    LECA_CHECK(_backend != nullptr, "server needs a backend");
    LECA_CHECK(!_options.wirePayload || _wire != nullptr,
               "wirePayload requires a WireEncoder at construction");
    LECA_CHECK(_frameShape.size() == 3,
               "frame shape must be {C, H, W}, got rank ",
               _frameShape.size());
    std::size_t elems = 1;
    for (int extent : _frameShape) {
        LECA_CHECK(extent >= 1, "frame extent must be >= 1, got ", extent);
        elems *= static_cast<std::size_t>(extent);
    }
    _frameElems = elems;
    _staging.resize(static_cast<std::size_t>(_options.maxBatch)
                    * _frameElems);
    _staged.resize(static_cast<std::size_t>(_options.maxBatch));
    // Pre-build the borrowed batch views (one per batch size) now that
    // _staging has its final storage; dispatch then never constructs a
    // Tensor per forward. See the _batchViews field comment.
    _batchViews.reserve(static_cast<std::size_t>(_options.maxBatch));
    for (int n = 1; n <= _options.maxBatch; ++n)
        _batchViews.push_back(Tensor::borrow(
            {n, _frameShape[0], _frameShape[1], _frameShape[2]},
            _staging.data()));
    if (_options.wirePayload) {
        _frameViews.reserve(static_cast<std::size_t>(_options.maxBatch));
        for (int n = 0; n < _options.maxBatch; ++n)
            _frameViews.push_back(Tensor::borrow(
                {_frameShape[0], _frameShape[1], _frameShape[2]},
                _staging.data()
                    + static_cast<std::size_t>(n) * _frameElems));
        _wireBufs.resize(static_cast<std::size_t>(_options.maxBatch));
    }
    _dispatcher.start([this] { runDispatcher(); });
}

Server::~Server()
{
    try {
        stop();
    } catch (...) {
        // A backend exception was already reported to every affected
        // ticket; destruction must not throw.
    }
}

Session
Server::openSession()
{
    MutexLock lock(_sessionMutex);
    return Session(_nextSessionId++, _sessionRoot.fork());
}

void
Server::submit(Session &session, const Tensor &frame, FrameTicket &ticket,
               std::int64_t deadline_micros)
{
    LECA_CHECK_SHAPE(frame, _frameShape);
    const auto now = Clock::now();
    const auto deadline =
        deadline_micros > 0
            ? now + std::chrono::microseconds(deadline_micros)
            : Clock::time_point::max();
    const Rng frame_rng = session.nextFrameRng();
    const std::uint64_t frame_index = session.framesSubmitted() - 1;
    ticket.arm(session.id(), frame_index);
    _metrics.recordSubmitted();

    const float *src = frame.data();
    const auto fill = [&](Request &request) {
        request.ticket = &ticket;
        request.pixels.assign(src, src + _frameElems);
        request.rng = frame_rng;
        request.session = session.id();
        request.frameIndex = frame_index;
        request.enqueue = now;
        request.deadline = deadline;
    };

    PushOutcome outcome = PushOutcome::Closed;
    switch (_options.policy) {
    case OverloadPolicy::Block:
        outcome = _queue.pushBlocking(fill);
        break;
    case OverloadPolicy::DropNewest:
        outcome = _queue.tryPush(fill);
        break;
    case OverloadPolicy::DropOldest:
        outcome = _queue.pushEvictOldest(fill, [&](Request &evicted) {
            _metrics.recordShed();
            completeUnserved(evicted.ticket, ServeStatus::Shed,
                             evicted.session, evicted.frameIndex,
                             evicted.enqueue);
        });
        break;
    }

    switch (outcome) {
    case PushOutcome::Ok:
    case PushOutcome::Evicted:
        _metrics.recordQueueDepth(_queue.size());
        break;
    case PushOutcome::Full:
        _metrics.recordShed();
        completeUnserved(&ticket, ServeStatus::Shed, session.id(),
                         frame_index, now);
        break;
    case PushOutcome::Closed:
        _metrics.recordRejectedClosed();
        completeUnserved(&ticket, ServeStatus::Closed, session.id(),
                         frame_index, now);
        break;
    }
}

void
Server::stop()
{
    MutexLock lock(_stopMutex);
    if (_stopped)
        return;
    _stopped = true;
    _queue.close();
    _dispatcher.join(); // rethrows a backend exception, if any
}

void
Server::completeUnserved(FrameTicket *ticket, ServeStatus status,
                         std::uint64_t session, std::uint64_t frame_index,
                         Clock::time_point enqueue)
{
    const auto now = Clock::now();
    ticket->complete([&](FrameResult &result) {
        result.status = status;
        result.session = session;
        result.frameIndex = frame_index;
        result.argmax = -1;
        result.queueNanos = 0;
        result.batchNanos = 0;
        result.totalNanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now
                                                                 - enqueue)
                .count();
        result.batchSize = 0;
    });
}

void
Server::stageRequest(Request &request, int row)
{
    std::memcpy(_staging.data()
                    + static_cast<std::size_t>(row) * _frameElems,
                request.pixels.data(), _frameElems * sizeof(float));
    Staged &staged = _staged[static_cast<std::size_t>(row)];
    staged.ticket = request.ticket;
    staged.rng = request.rng;
    staged.session = request.session;
    staged.frameIndex = request.frameIndex;
    staged.enqueue = request.enqueue;
    staged.queueNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - request.enqueue)
            .count();
}

int
Server::collectBatch()
{
    int count = 0;
    const auto accept = [&](Request &request) {
        if (request.deadline != Clock::time_point::max()
            && Clock::now() > request.deadline) {
            // Expire queued work whose deadline passed. Ticket locks
            // nest under the queue lock by fixed order, so completing
            // here is safe.
            _metrics.recordExpired();
            completeUnserved(request.ticket, ServeStatus::Expired,
                             request.session, request.frameIndex,
                             request.enqueue);
            _expiredThisCollect = true;
            return;
        }
        _expiredThisCollect = false;
        stageRequest(request, count);
    };

    // First frame: block until traffic arrives or the queue closes.
    while (count == 0) {
        if (!_queue.popBlocking(accept))
            return 0; // closed and drained
        if (!_expiredThisCollect)
            count = 1;
    }
    // Coalesce: keep admitting frames until the batch is full or the
    // max-wait window since the first admitted frame elapses.
    const auto wait_deadline =
        Clock::now() + std::chrono::microseconds(_options.maxWaitMicros);
    while (count < _options.maxBatch) {
        if (!_queue.popUntil(wait_deadline, accept))
            break; // window elapsed (or closed and drained)
        if (!_expiredThisCollect)
            ++count;
    }
    return count;
}

void
Server::dispatchLoop()
{
    for (;;) {
        const int count = collectBatch();
        if (count == 0)
            return; // closed and drained

        // Per-frame sensor noise from the session streams, outside
        // any lock: each frame's draws come from its own pre-forked
        // stream, so results do not depend on batch composition.
        if (_options.injectPixelNoise) {
            for (int i = 0; i < count; ++i) {
                float *row =
                    _staging.data() + static_cast<std::size_t>(i)
                                          * _frameElems;
                Rng rng = _staged[static_cast<std::size_t>(i)].rng;
                for (std::size_t j = 0; j < _frameElems; ++j)
                    row[j] = _noise.sampleIntensity(row[j], rng);
            }
        }

        Clock::time_point forward_start;
        Tensor logits;
        try {
            // Wire payloads are per-frame pure functions of the staged
            // (post-noise) pixels, so batch composition cannot leak
            // into the encoded bytes. The encoder owns its allocation
            // budget like the backend does.
            if (_options.wirePayload) {
                AllowAllocScope allow_wire;
                for (int i = 0; i < count; ++i) {
                    std::vector<std::uint8_t> &buf =
                        _wireBufs[static_cast<std::size_t>(i)];
                    buf.clear();
                    _wire(_frameViews[static_cast<std::size_t>(i)], buf);
                }
            }
            const Tensor &batch =
                _batchViews[static_cast<std::size_t>(count) - 1];
            // The serve layer itself is allocation-free at steady
            // state; the backend owns its own allocation budget
            // (documented contract), so exempt the forward from any
            // enclosing DenyAllocScope.
            AllowAllocScope allow_backend;
            // batchNanos times the backend alone; the wire encode above
            // counts only in each frame's totalNanos.
            forward_start = Clock::now();
            logits = _backend(batch);
        } catch (...) {
            for (int i = 0; i < count; ++i) {
                const Staged &staged = _staged[static_cast<std::size_t>(i)];
                _metrics.recordErrored();
                completeUnserved(staged.ticket, ServeStatus::Error,
                                 staged.session, staged.frameIndex,
                                 staged.enqueue);
            }
            throw; // runDispatcher drains the rest, stop() rethrows
        }
        const auto forward_stop = Clock::now();
        LECA_CHECK(logits.dim() == 2 && logits.size(0) == count,
                   "backend must return [batch, classes] logits, got ",
                   detail::formatShape(logits.shape()), " for batch ",
                   count);
        const std::int64_t batch_nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                forward_stop - forward_start)
                .count();
        _metrics.recordBatch();
        _metrics.batchNanos().record(batch_nanos);
        _metrics.batchSize().record(count);

        const int classes = logits.size(1);
        const float *all = logits.data();
        for (int i = 0; i < count; ++i) {
            const Staged &staged = _staged[static_cast<std::size_t>(i)];
            const float *row =
                all + static_cast<std::size_t>(i)
                          * static_cast<std::size_t>(classes);
            int best = 0;
            for (int k = 1; k < classes; ++k)
                if (row[k] > row[best])
                    best = k;
            const auto done = Clock::now();
            const std::int64_t total_nanos =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    done - staged.enqueue)
                    .count();
            staged.ticket->complete([&](FrameResult &result) {
                result.status = ServeStatus::Ok;
                result.session = staged.session;
                result.frameIndex = staged.frameIndex;
                result.logits.assign(row, row + classes);
                result.argmax = best;
                if (_options.wirePayload) {
                    const std::vector<std::uint8_t> &buf =
                        _wireBufs[static_cast<std::size_t>(i)];
                    result.wire.assign(buf.begin(), buf.end());
                }
                result.queueNanos = staged.queueNanos;
                result.batchNanos = batch_nanos;
                result.totalNanos = total_nanos;
                result.batchSize = count;
            });
            _metrics.recordCompleted();
            _metrics.queueNanos().record(staged.queueNanos);
            _metrics.totalNanos().record(total_nanos);
        }
    }
}

void
Server::runDispatcher()
{
    try {
        dispatchLoop();
    } catch (...) {
        // The dispatcher is dying: refuse new work and complete
        // everything still queued so no client blocks forever.
        _queue.close();
        while (_queue.popBlocking([&](Request &request) {
            _metrics.recordRejectedClosed();
            completeUnserved(request.ticket, ServeStatus::Closed,
                             request.session, request.frameIndex,
                             request.enqueue);
        })) {
        }
        throw;
    }
}

// ---- Backends ------------------------------------------------------------

Server::Backend
pipelineBackend(LecaPipeline &pipeline)
{
    return [&pipeline](const Tensor &batch) {
        return pipeline.forward(batch, Mode::Eval);
    };
}

Server::Backend
quantizedPipelineBackend(LecaPipeline &pipeline)
{
    if (!pipeline.quantized())
        pipeline.quantize();
    return pipelineBackend(pipeline);
}

Server::WireEncoder
pipelineWireEncoder(LecaPipeline &pipeline)
{
    return [&pipeline](const Tensor &frame,
                       std::vector<std::uint8_t> &out) {
        const Tensor batch = Tensor::borrow(
            {1, frame.size(0), frame.size(1), frame.size(2)},
            frame.data());
        const Tensor features = pipeline.encodeFeatures(batch, Mode::Eval);

        // The encoder emits exact quantizer grid values in [-1, 1], so
        // nearest-level requantization recovers the integer code of
        // every feature losslessly.
        std::vector<std::uint8_t> codes(features.numel());
        quantizeCodes(features.data(), codes.size(), -1.0f, 1.0f,
                      pipeline.encoder().qbits().levels(), codes.data());

        // Delta against the same x in the previous feature row — the
        // natural image-like prediction stride for [C, OH, OW] codes.
        const std::uint64_t stride = static_cast<std::uint64_t>(
            features.size(features.dim() - 1));
        out = bitstream::encodeByteStream(codes.data(), codes.size(),
                                          stride);
    };
}

} // namespace leca::serve
