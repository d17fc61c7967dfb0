#include "conv_transpose.hh"

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

ConvTranspose2d::ConvTranspose2d(int cin, int cout, int k, int stride,
                                 bool bias, Rng &rng)
    : _cin(cin), _cout(cout), _k(k), _stride(stride), _hasBias(bias),
      _weight(Tensor({cin, cout, k, k})),
      _bias(Tensor({cout}))
{
    LECA_CHECK(cin > 0 && cout > 0 && k > 0 && stride > 0,
               "ConvTranspose2d config ", cin, " -> ", cout, " k=", k,
               " stride=", stride);
    kaimingInit(_weight.value, cin * k * k, rng);
}

Tensor
ConvTranspose2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _cin, "ConvTranspose2d(", _cin,
               " -> ", _cout, ") input shape ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const int oh = (h - 1) * _stride + _k;
    const int ow = (w - 1) * _stride + _k;

    const int krows = _cout * _k * _k;
    const std::int64_t hw = static_cast<std::int64_t>(h) * w;
    const std::int64_t out_sz = static_cast<std::int64_t>(_cout) * oh * ow;
    const Tensor wmat = _weight.value.reshape({_cin, krows});
    Tensor y({n, _cout, oh, ow});
    // Each image's [Cin, H*W] slab of x is contiguous, so the GEMM reads
    // it in place; the cols matrix is arena scratch and col2imRaw folds
    // it straight into the zero-initialised output slab. Steady-state
    // forwards allocate nothing per image.
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            const float *xm = x.data() + static_cast<std::size_t>(i) * _cin * hw;
            Arena::Scope scope;
            // cols = W^T * X : [Cout*K*K, H*W]
            float *cols = Arena::local().alloc(
                static_cast<std::size_t>(krows) * hw);
            gemmBlocked(krows, hw, _cin, wmat.data(), krows, true, xm, hw,
                        false, cols, hw, false);
            float *dst = y.data() + static_cast<std::size_t>(i) * out_sz;
            col2imRaw(cols, _cout, oh, ow, _k, _k, _stride, 0, dst);
            if (_hasBias)
                for (int co = 0; co < _cout; ++co) {
                    const float b = _bias.value[static_cast<std::size_t>(co)];
                    for (std::int64_t p = 0; p < oh * ow; ++p)
                        dst[co * oh * ow + p] += b;
                }
        }
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
ConvTranspose2d::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inN > 0, "ConvTranspose2d backward without cached forward");
    LECA_CHECK(frozen() == _fwdFrozen,
               "ConvTranspose2d frozen state changed between forward and "
               "backward");
    LECA_CHECK(grad_out.dim() == 4 && grad_out.size(1) == _cout,
               "ConvTranspose2d grad shape ",
               detail::formatShape(grad_out.shape()));
    const int n = _inN, h = _inH, w = _inW;
    const int oh = grad_out.size(2), ow = grad_out.size(3);

    const int krows = _cout * _k * _k;
    const std::int64_t hw = static_cast<std::int64_t>(h) * w;
    const std::int64_t go_sz = static_cast<std::int64_t>(_cout) * oh * ow;
    const float *wmat = _weight.value.data(); // [cin, krows] row-major
    Tensor dx({n, _cin, h, w});

    // Per-image gradient partials (dW, then db when learned) live in
    // one arena slab owned by the calling thread's scope; workers only
    // open nested scopes above it. The slab is folded serially in
    // ascending image order below, so the float summation order matches
    // the serial loop bit for bit, and nothing here touches the heap.
    const std::size_t wsz = static_cast<std::size_t>(_cin) * krows;
    const std::size_t per = wsz + static_cast<std::size_t>(
                                      _hasBias ? _cout : 0);
    Arena::Scope scope;
    float *partials = nullptr;
    if (!_fwdFrozen)
        partials = Arena::local().alloc(static_cast<std::size_t>(n) * per);
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            const float *dy =
                grad_out.data() + static_cast<std::size_t>(i) * go_sz;
            Arena::Scope image_scope;
            // dcols = im2col(dY) : [Cout*K*K, H*W]
            float *dcols = Arena::local().alloc(
                static_cast<std::size_t>(krows) * hw);
            im2colRaw(dy, _cout, oh, ow, _k, _k, _stride, 0, dcols);
            // dX = W * dcols : [Cin, H*W], written straight to its slab.
            gemmBlocked(_cin, hw, krows, wmat, krows, false, dcols, hw,
                        false,
                        dx.data() + static_cast<std::size_t>(i) * _cin * hw,
                        hw, false);
            if (_fwdFrozen)
                continue;
            float *dw = partials + static_cast<std::size_t>(i) * per;
            // dW_i^T = dcols * X^T : [Cout*K*K, Cin]. Same operand
            // pairs and the same ascending-p fma chain per element as
            // X * dcols^T — bit-identical — but this orientation packs
            // the big dcols matrix along its storage rows instead of
            // transposing it; only the small X block transposes.
            const float *xm =
                _input.data() + static_cast<std::size_t>(i) * _cin * hw;
            gemmBlocked(krows, _cin, hw, dcols, hw, false, xm, hw, true,
                        dw, _cin, false);
            if (_hasBias) {
                float *db = dw + wsz;
                for (int co = 0; co < _cout; ++co) {
                    float acc = 0.0f;
                    for (std::int64_t p = 0;
                         p < static_cast<std::int64_t>(oh) * ow; ++p)
                        acc += dy[co * static_cast<std::int64_t>(oh) * ow + p];
                    db[static_cast<std::size_t>(co)] = acc;
                }
            }
        }
    });
    _inN = 0;
    if (_fwdFrozen)
        return dx;
    // Each image's dW partial is stored transposed ([Cout*K*K, Cin]);
    // the fold still adds one value per element per image in ascending
    // image order, so the summation chains are unchanged.
    Tensor dwmat({_cin, krows});
    float *dwp = dwmat.data();
    for (int i = 0; i < n; ++i) {
        const float *dw = partials + static_cast<std::size_t>(i) * per;
        for (int ci = 0; ci < _cin; ++ci) {
            float *acc = dwp + static_cast<std::size_t>(ci) * krows;
            for (int r = 0; r < krows; ++r)
                acc[r] += dw[static_cast<std::size_t>(r) * _cin + ci];
        }
        if (_hasBias)
            for (int co = 0; co < _cout; ++co)
                _bias.grad[static_cast<std::size_t>(co)] +=
                    dw[wsz + static_cast<std::size_t>(co)];
    }
    _weight.grad += dwmat.reshape({_cin, _cout, _k, _k});
    _input = Tensor();
    return dx;
}

std::vector<Param *>
ConvTranspose2d::params()
{
    if (_hasBias)
        return {&_weight, &_bias};
    return {&_weight};
}

} // namespace leca
