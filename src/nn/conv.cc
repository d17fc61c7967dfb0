#include "conv.hh"

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

Conv2d::Conv2d(int cin, int cout, int k, int stride, int pad, bool bias,
               Rng &rng)
    : _cin(cin), _cout(cout), _k(k), _stride(stride), _pad(pad),
      _hasBias(bias),
      _weight(Tensor({cout, cin, k, k})),
      _bias(Tensor({cout}))
{
    LECA_CHECK(cin > 0 && cout > 0, "Conv2d channels ", cin, " -> ", cout);
    LECA_CHECK(k > 0 && stride > 0 && pad >= 0, "Conv2d k=", k, " stride=",
               stride, " pad=", pad);
    kaimingInit(_weight.value, cin * k * k, rng);
}

Tensor
Conv2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _cin, "Conv2d(", _cin, " -> ",
               _cout, ", k=", _k, ") input shape ",
               detail::formatShape(x.shape()));
    LECA_CHECK(_qweight.empty() || mode == Mode::Eval,
               "quantized Conv2d cannot run a Train-mode forward");
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const int oh = convOutSize(h, _k, _stride, _pad);
    const int ow = convOutSize(w, _k, _stride, _pad);

    Tensor y({n, _cout, oh, ow});
    // A quantized conv runs the same packed fp32 conv as an fp32 one,
    // over its codes dequantized into arena scratch (the exact
    // products q·s) on every call, so no weight copy can go stale
    // after a restore. Each image packs straight into arena scratch
    // (convForwardPacked): no column matrix is ever materialised, so
    // steady-state forwards allocate nothing per image. Backward
    // recomputes the packed im2col from the cached input.
    Arena::Scope scope;
    const float *wmat = _weight.value.data();
    if (!_qweight.empty()) {
        float *dq = Arena::local().alloc(
            static_cast<std::size_t>(_qweight.rows * _qweight.cols));
        dequantizeRowsInto(_qweight, dq);
        wmat = dq;
    }
    const float *bias = _hasBias ? _bias.value.data() : nullptr;
    const std::size_t in_sz = static_cast<std::size_t>(_cin) * h * w;
    const std::size_t out_sz = static_cast<std::size_t>(_cout) * oh * ow;
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t i = n0; i < n1; ++i)
            convForwardPacked(
                x.data() + static_cast<std::size_t>(i) * in_sz, _cin, h, w,
                _k, _k, _stride, _pad, wmat, _cout, bias,
                y.data() + static_cast<std::size_t>(i) * out_sz);
    });
    if (mode == Mode::Train) {
        _inN = n;
        _inH = h;
        _inW = w;
        _fwdFrozen = frozen();
        if (!_fwdFrozen)
            _input = x;
    }
    return y;
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inN > 0, "Conv2d backward without cached forward");
    LECA_CHECK(frozen() == _fwdFrozen,
               "Conv2d frozen state changed between forward and backward");
    const int n = _inN, h = _inH, w = _inW;
    const int oh = grad_out.size(2), ow = grad_out.size(3);
    LECA_CHECK(grad_out.size(0) == n && grad_out.size(1) == _cout,
               "Conv2d grad shape ", detail::formatShape(grad_out.shape()),
               " vs batch ", n, " x ", _cout, " channels");

    const int kdim = _cin * _k * _k;
    // When a bias is learned, the column matrix gets one extra all-ones
    // row: the dW GEMM then emits db as its trailing output column in
    // the same dY traversal (x * 1.0f == x, and each output element
    // accumulates its k contributions in one ascending chain, so the
    // fused column is bit-identical to the explicit row-sum loop).
    const int grows = kdim + (_hasBias ? 1 : 0);
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    const std::size_t in_sz = static_cast<std::size_t>(_cin) * h * w;
    const float *wmat = _weight.value.data(); // [cout, kdim] row-major
    Tensor dx({n, _cin, h, w});

    // Per-image gradient partials live in one arena slab owned by the
    // calling thread's scope; workers only open nested scopes above it.
    // The slab is folded serially in ascending image order below, so
    // the float summation order matches the serial loop bit for bit,
    // and nothing in this pass touches the heap.
    Arena::Scope scope;
    float *partials = nullptr;
    if (!_fwdFrozen)
        partials = Arena::local().alloc(
            static_cast<std::size_t>(n) * _cout * grows);
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            const float *dy =
                grad_out.data() + static_cast<std::size_t>(i) * _cout * ohow;
            Arena::Scope image_scope;
            if (!_fwdFrozen) {
                float *dw = partials
                            + static_cast<std::size_t>(i) * _cout * grows;
                // Recompute this image's column matrix into arena
                // scratch.
                float *cols = Arena::local().alloc(
                    static_cast<std::size_t>(grows) * ohow);
                im2colRaw(
                    _input.data() + static_cast<std::size_t>(i) * in_sz,
                    _cin, h, w, _k, _k, _stride, _pad, cols);
                if (_hasBias) {
                    float *ones =
                        cols + static_cast<std::size_t>(kdim) * ohow;
                    for (std::int64_t p = 0; p < ohow; ++p)
                        ones[p] = 1.0f;
                }
                // dW_i^T (with db_i fused as the last row) = cols * dY^T.
                // Same operand pairs and the same ascending-p fma chain
                // per element as dY * cols^T — bit-identical — but this
                // orientation packs the big column matrix along its
                // storage rows instead of transposing it, and only the
                // small dY block goes through the transpose pack.
                gemmBlocked(grows, _cout, ohow, cols, ohow, false, dy, ohow,
                            true, dw, _cout, false);
            }
            // dX = col2im(W^T * dY); images write disjoint slabs, and
            // col2imRaw accumulates straight into the zero-initialised
            // dx slab.
            float *dcols = Arena::local().alloc(
                static_cast<std::size_t>(kdim) * ohow);
            gemmBlocked(kdim, ohow, _cout, wmat, kdim, true, dy, ohow,
                        false, dcols, ohow, false);
            col2imRaw(dcols, _cin, h, w, _k, _k, _stride, _pad,
                      dx.data() + static_cast<std::size_t>(i) * in_sz);
        }
    });
    _inN = 0;
    if (_fwdFrozen)
        return dx;
    // Each image's partial is stored transposed ([grows, cout]); the
    // fold still adds one value per (co, q) element per image in
    // ascending image order, so the summation chains are unchanged.
    Tensor dwmat({_cout, kdim});
    float *dwp = dwmat.data();
    for (int i = 0; i < n; ++i) {
        const float *dw =
            partials + static_cast<std::size_t>(i) * _cout * grows;
        for (int co = 0; co < _cout; ++co) {
            float *acc = dwp + static_cast<std::size_t>(co) * kdim;
            for (int q = 0; q < kdim; ++q)
                acc[q] += dw[static_cast<std::size_t>(q) * _cout + co];
            if (_hasBias)
                _bias.grad[static_cast<std::size_t>(co)] +=
                    dw[static_cast<std::size_t>(kdim) * _cout + co];
        }
    }
    _weight.grad += dwmat.reshape({_cout, _cin, _k, _k});
    _input = Tensor();
    return dx;
}

std::vector<Param *>
Conv2d::params()
{
    if (_hasBias)
        return {&_weight, &_bias};
    return {&_weight};
}

// leca-analyze: cold — resident weight re-layout (plan time)
void
Conv2d::prepareResident()
{
    LECA_CHECK(!_qweight.empty(),
               "Conv2d::prepareResident before quantizeWeights");
    _qweightHwc = quantizeConvWeightsHwc(_qweight, _cin, _k, _k);
}

void
Conv2d::quantizeWeights(std::vector<QuantStat> &stats)
{
    _qweight = quantizeRowMajor(_weight.value, _cout,
                                static_cast<std::int64_t>(_cin) * _k * _k);
    stats.push_back({"Conv2d " + std::to_string(_cin) + "->"
                         + std::to_string(_cout) + " k"
                         + std::to_string(_k),
                     _qweight.fp32Bytes(), _qweight.quantBytes(),
                     quantMaxAbsError(_weight.value, _qweight)});
}

} // namespace leca
