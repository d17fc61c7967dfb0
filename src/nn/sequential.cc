#include "sequential.hh"

#include <cmath>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "tensor/quant.hh"
#include "util/arena.hh"
#include "util/check.hh"

namespace leca {

Sequential &
Sequential::add(LayerPtr layer)
{
    LECA_CHECK(layer != nullptr, "Sequential::add given a null layer");
    _layers.push_back(std::move(layer));
    return *this;
}

Tensor
Sequential::forward(const Tensor &x, Mode mode)
{
    if (mode == Mode::Eval && !_plan.empty() && x.dim() == 4)
        return forwardPlanned(x);
    Tensor cur = x;
    for (auto &layer : _layers)
        cur = layer->forward(cur, mode);
    return cur;
}

Tensor
Sequential::backward(const Tensor &grad_out)
{
    Tensor cur = grad_out;
    for (auto it = _layers.rbegin(); it != _layers.rend(); ++it)
        cur = (*it)->backward(cur);
    return cur;
}

// leca-analyze: cold — tree enumeration (setup)
std::vector<Layer *>
Sequential::children()
{
    std::vector<Layer *> out;
    out.reserve(_layers.size());
    for (auto &layer : _layers)
        out.push_back(layer.get());
    return out;
}

// leca-analyze: cold — quantized execution planning (quantize/load time)
void
planQuantized(Layer &root)
{
    forEachLayer(root, [](Layer &layer) {
        if (auto *seq = dynamic_cast<Sequential *>(&layer))
            seq->planSteps();
        else if (auto *fc = dynamic_cast<Linear *>(&layer);
                 fc != nullptr && fc->quantized())
            fc->preparePack();
    });
}

// leca-analyze: cold — quantized execution planning (quantize/load time)
void
Sequential::planSteps()
{
    _plan.clear();
    std::vector<QuantStep> steps;
    for (std::size_t i = 0; i < _layers.size();) {
        Layer *l = _layers[i].get();
        if (auto *conv = dynamic_cast<Conv2d *>(l);
            conv != nullptr && conv->quantized()
            && conv->cin() >= kResidentMinCin) {
            QuantStep st;
            st.kind = QuantStep::Kind::ConvResident;
            st.layer = l;
            st.conv = conv;
            std::size_t j = i + 1;
            if (j < _layers.size())
                if (auto *bn =
                        dynamic_cast<BatchNorm2d *>(_layers[j].get())) {
                    st.bn = bn;
                    ++j;
                }
            if (j < _layers.size()
                && dynamic_cast<Relu *>(_layers[j].get()) != nullptr) {
                st.relu = true;
                ++j;
            }
            conv->prepareResident();
            steps.push_back(st);
            i = j;
            continue;
        }
        if (auto *rb = dynamic_cast<ResidualBlock *>(l);
            rb != nullptr && rb->planResident()) {
            QuantStep st;
            st.kind = QuantStep::Kind::Residual;
            st.layer = l;
            steps.push_back(st);
            ++i;
            continue;
        }
        QuantStep st;
        st.layer = l;
        if (dynamic_cast<GlobalAvgPool *>(l) != nullptr)
            st.kind = QuantStep::Kind::Gap;
        steps.push_back(st);
        ++i;
    }
    // Fuse fp32 -> resident entry boundaries: a Plain BatchNorm and/or
    // ReLU standing immediately before a resident conv/residual step
    // folds into that step's entry quantization (quantizeActivation-
    // Nchw's epilogue overload) — one pass over the planes instead of
    // a BN pass, a ReLU pass, and a separate quantize.
    std::vector<QuantStep> merged;
    merged.reserve(steps.size());
    for (std::size_t s = 0; s < steps.size();) {
        std::size_t j = s;
        BatchNorm2d *bn = nullptr;
        if (steps[j].kind == QuantStep::Kind::Plain
            && (bn = dynamic_cast<BatchNorm2d *>(steps[j].layer)) != nullptr)
            ++j;
        bool relu = false;
        if (j < steps.size() && steps[j].kind == QuantStep::Kind::Plain
            && dynamic_cast<Relu *>(steps[j].layer) != nullptr) {
            relu = true;
            ++j;
        }
        if (j > s && j < steps.size()
            && (steps[j].kind == QuantStep::Kind::ConvResident
                || steps[j].kind == QuantStep::Kind::Residual)) {
            QuantStep st;
            st.kind = QuantStep::Kind::FusedEntry;
            st.bn = bn;
            st.relu = relu;
            merged.push_back(st);
            s = j;
            continue;
        }
        merged.push_back(steps[s]);
        ++s;
    }
    steps = std::move(merged);
    // A step keeps its output resident exactly when the next step can
    // consume codes; everything else exits fp32 (precision boundary).
    // FusedEntry consumes fp32 (it IS the boundary) but emits codes.
    const auto consumesQuant = [](QuantStep::Kind k) {
        return k == QuantStep::Kind::ConvResident
               || k == QuantStep::Kind::Residual
               || k == QuantStep::Kind::Gap;
    };
    bool any_resident = false;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const QuantStep::Kind k = steps[s].kind;
        const bool can_emit = k == QuantStep::Kind::ConvResident
                              || k == QuantStep::Kind::Residual
                              || k == QuantStep::Kind::FusedEntry;
        steps[s].emitQuant = can_emit && s + 1 < steps.size()
                             && consumesQuant(steps[s + 1].kind);
        any_resident = any_resident || can_emit;
    }
    // GAP only pools over codes when a resident producer feeds it;
    // otherwise it runs its plain fp32 forward.
    for (std::size_t s = 0; s < steps.size(); ++s)
        if (steps[s].kind == QuantStep::Kind::Gap
            && !(s > 0 && steps[s - 1].emitQuant))
            steps[s].kind = QuantStep::Kind::Plain;
    if (any_resident)
        _plan = std::move(steps);
}

Tensor
Sequential::forwardPlanned(const Tensor &x)
{
    Arena::Scope scope;
    Arena &arena = Arena::local();
    Tensor cur = x;
    QuantActivation qa;
    bool resident = false;

    // Entry quantization for a resident step fed by an fp32 producer;
    // a FusedEntry step passes its folded BN/ReLU epilogue through.
    const auto toResident = [&](const Tensor &t,
                                const ResidentEpilogue &epi) {
        QuantActivation act;
        act.n = t.size(0);
        act.c = t.size(1);
        act.h = t.size(2);
        act.w = t.size(3);
        const std::int64_t rows = act.rows();
        act.q = static_cast<std::int8_t *>(arena.allocBytes(
            static_cast<std::size_t>(rows * quantPadded(act.c))));
        act.scales =
            arena.alloc(static_cast<std::size_t>(rows * act.nbc()));
        quantizeActivationNchw(t.data(), act.n, act.c, act.h, act.w, epi,
                               act.q, act.scales);
        return act;
    };
    const auto allocOut = [&](int n, int c, int h, int w) {
        QuantActivation act;
        act.n = n;
        act.c = c;
        act.h = h;
        act.w = w;
        const std::int64_t rows = act.rows();
        act.q = static_cast<std::int8_t *>(arena.allocBytes(
            static_cast<std::size_t>(rows * quantPadded(c))));
        act.scales =
            arena.alloc(static_cast<std::size_t>(rows * act.nbc()));
        return act;
    };

    for (const QuantStep &st : _plan) {
        switch (st.kind) {
          case QuantStep::Kind::Plain: {
            if (resident) {
                // Defensive boundary; the planner never produces this.
                Tensor t({qa.n, qa.c, qa.h, qa.w});
                // leca-lint: precision-boundary
                dequantizeActivationNchw(qa, t.data());
                cur = std::move(t);
                resident = false;
            }
            cur = st.layer->forward(cur, Mode::Eval);
            break;
          }
          case QuantStep::Kind::ConvResident: {
            const QuantActivation src =
                resident ? qa : toResident(cur, ResidentEpilogue{});
            Conv2d &conv = *st.conv;
            const ConvGeometry g = conv.geometry(src.h, src.w);
            const int cout = conv.cout();
            // Epilogue affines are recomputed from the live BN buffers
            // each forward (c floats — negligible), so a load() after
            // planning can never serve stale statistics.
            float *ea = nullptr, *eb = nullptr;
            if (st.bn != nullptr || conv.hasBias()) {
                ea = arena.alloc(static_cast<std::size_t>(cout));
                eb = arena.alloc(static_cast<std::size_t>(cout));
                if (st.bn != nullptr) {
                    st.bn->evalAffineInto(ea, eb);
                    if (conv.hasBias()) {
                        // y = a·(x+bias)+b = a·x + (a·bias + b).
                        const float *bias = conv.bias().value.data();
                        for (int ch = 0; ch < cout; ++ch)
                            eb[ch] = std::fmaf(ea[ch], bias[ch], eb[ch]);
                    }
                } else {
                    // fmaf(1, x, bias) == x + bias exactly.
                    const float *bias = conv.bias().value.data();
                    for (int ch = 0; ch < cout; ++ch) {
                        ea[ch] = 1.0f;
                        eb[ch] = bias[ch];
                    }
                }
            }
            const ResidentEpilogue epi{ea, eb, st.relu};
            if (st.emitQuant) {
                QuantActivation out = allocOut(src.n, cout, g.oh(), g.ow());
                convForwardResident(src, g, conv.qweightHwc(), epi, out.q,
                                    out.scales, nullptr, nullptr);
                qa = out;
                resident = true;
            } else {
                Tensor out({src.n, cout, g.oh(), g.ow()});
                convForwardResident(src, g, conv.qweightHwc(), epi, nullptr,
                                    nullptr, nullptr, out.data());
                cur = std::move(out);
                resident = false;
            }
            break;
          }
          case QuantStep::Kind::FusedEntry: {
            LECA_CHECK(!resident,
                       "FusedEntry must be fed by an fp32 producer");
            LECA_CHECK(cur.dim() == 4
                           && (st.bn == nullptr
                               || cur.size(1) == st.bn->channels()),
                       "FusedEntry input does not match the folded BN");
            float *ea = nullptr, *eb = nullptr;
            if (st.bn != nullptr) {
                // Like the conv epilogue: recomputed from the live BN
                // buffers each forward, so load() never serves stale
                // statistics.
                const int c = cur.size(1);
                ea = arena.alloc(static_cast<std::size_t>(c));
                eb = arena.alloc(static_cast<std::size_t>(c));
                st.bn->evalAffineInto(ea, eb);
            }
            qa = toResident(cur, ResidentEpilogue{ea, eb, st.relu});
            resident = true;
            break;
          }
          case QuantStep::Kind::Residual: {
            const QuantActivation src =
                resident ? qa : toResident(cur, ResidentEpilogue{});
            auto &block = static_cast<ResidualBlock &>(*st.layer);
            int oh = 0, ow = 0;
            block.outShape(src.h, src.w, oh, ow);
            const int cout = block.outChannels();
            if (st.emitQuant) {
                QuantActivation out = allocOut(src.n, cout, oh, ow);
                block.forwardResident(src, out.q, out.scales, nullptr);
                qa = out;
                resident = true;
            } else {
                Tensor out({src.n, cout, oh, ow});
                block.forwardResident(src, nullptr, nullptr, out.data());
                cur = std::move(out);
                resident = false;
            }
            break;
          }
          case QuantStep::Kind::Gap: {
            Tensor out({qa.n, qa.c});
            globalAvgPoolResident(qa, out.data());
            cur = std::move(out);
            resident = false;
            break;
          }
        }
    }
    if (resident) {
        // The plan's last resident step always exits fp32, but guard
        // anyway so a hand-built plan cannot return dangling views.
        Tensor t({qa.n, qa.c, qa.h, qa.w});
        // leca-lint: precision-boundary
        dequantizeActivationNchw(qa, t.data());
        cur = std::move(t);
    }
    return cur;
}

ResidualBlock::ResidualBlock(int cin, int cout, int stride, Rng &rng)
    : _hasProj(stride != 1 || cin != cout)
{
    _conv1 = &_main.emplace<Conv2d>(cin, cout, 3, stride, 1, false, rng);
    _bn1 = &_main.emplace<BatchNorm2d>(cout);
    _main.emplace<Relu>();
    _conv2 = &_main.emplace<Conv2d>(cout, cout, 3, 1, 1, false, rng);
    _bn2 = &_main.emplace<BatchNorm2d>(cout);
    if (_hasProj) {
        _projConv = &_proj.emplace<Conv2d>(cin, cout, 1, stride, 0, false,
                                           rng);
        _projBn = &_proj.emplace<BatchNorm2d>(cout);
    }
    _finalRelu = std::make_unique<Relu>();
}

// leca-analyze: cold — resident eligibility (plan time)
bool
ResidualBlock::planResident()
{
    // A conv reading fewer than kResidentMinCin channels runs plain in
    // its path's plan, which then never builds its resident layout.
    _resident = true;
    for (const Conv2d *conv : {_conv1, _conv2, _projConv})
        if (conv != nullptr
            && !(conv->quantized() && conv->cin() >= kResidentMinCin))
            _resident = false;
    return _resident;
}

int
ResidualBlock::outChannels() const
{
    return _conv1->cout();
}

void
ResidualBlock::outShape(int h, int w, int &oh, int &ow) const
{
    const int k = _conv1->kernel(), s = _conv1->stride(),
              p = _conv1->pad();
    oh = (h + 2 * p - k) / s + 1;
    ow = (w + 2 * p - k) / s + 1;
}

void
ResidualBlock::forwardResident(const QuantActivation &in, std::int8_t *out_q,
                               float *out_s, float *out_planes)
{
    LECA_CHECK(_resident,
               "ResidualBlock::forwardResident before planResident");
    LECA_CHECK((out_q != nullptr) != (out_planes != nullptr),
               "ResidualBlock::forwardResident needs exactly one exit");
    Arena::Scope scope;
    Arena &arena = Arena::local();
    const ConvGeometry g1 = _conv1->geometry(in.h, in.w);
    const int cout = g1.cout;
    const std::int64_t rows =
        static_cast<std::int64_t>(in.n) * g1.oh() * g1.ow();

    float *a1 = arena.alloc(static_cast<std::size_t>(cout));
    float *b1 = arena.alloc(static_cast<std::size_t>(cout));
    float *a2 = arena.alloc(static_cast<std::size_t>(cout));
    float *b2 = arena.alloc(static_cast<std::size_t>(cout));
    _bn1->evalAffineInto(a1, b1);
    _bn2->evalAffineInto(a2, b2);

    // conv1 (+bn1+relu) -> resident intermediate, quantized once.
    QuantActivation m1;
    m1.n = in.n;
    m1.c = cout;
    m1.h = g1.oh();
    m1.w = g1.ow();
    m1.q = static_cast<std::int8_t *>(arena.allocBytes(
        static_cast<std::size_t>(rows * quantPadded(cout))));
    m1.scales =
        arena.alloc(static_cast<std::size_t>(rows * quantBlocks(cout)));
    convForwardResident(in, g1, _conv1->qweightHwc(), {a1, b1, true}, m1.q,
                        m1.scales, nullptr, nullptr);

    // Skip path, ready before conv2 so conv2's epilogue can finish the
    // block: the 1x1 projection (+bn) as fp32 pixel-major rows, or the
    // identity input itself, which the epilogue dequantizes exactly row
    // by row (stride 1 and cin == cout, so its rows are the output's).
    ResidentEpilogue exit{a2, b2, true};
    if (_hasProj) {
        float *ap = arena.alloc(static_cast<std::size_t>(cout));
        float *bp = arena.alloc(static_cast<std::size_t>(cout));
        _projBn->evalAffineInto(ap, bp);
        float *skip = arena.alloc(static_cast<std::size_t>(rows * cout));
        convForwardResident(in, _projConv->geometry(in.h, in.w),
                            _projConv->qweightHwc(), {ap, bp, false},
                            nullptr, nullptr, skip, nullptr);
        exit.skipRows = skip;
    } else {
        exit.skipCodes = in;
    }

    // conv2 (+bn2), the skip add and the final ReLU, in one epilogue
    // that exits requantized or as fp32 planes.
    convForwardResident(m1, _conv2->geometry(m1.h, m1.w),
                        _conv2->qweightHwc(), exit, out_q, out_s, nullptr,
                        out_planes);
}

Tensor
ResidualBlock::forward(const Tensor &x, Mode mode)
{
    Tensor main = _main.forward(x, mode);
    Tensor skip = _hasProj ? _proj.forward(x, mode) : x;
    LECA_CHECK_SAME_SHAPE(main, skip);
    main += skip;
    return _finalRelu->forward(main, mode);
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    const Tensor d_sum = _finalRelu->backward(grad_out);
    Tensor dx = _main.backward(d_sum);
    if (_hasProj) {
        dx += _proj.backward(d_sum);
    } else {
        dx += d_sum;
    }
    return dx;
}

} // namespace leca
