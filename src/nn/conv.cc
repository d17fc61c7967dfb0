#include "conv.hh"

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "util/arena.hh"
#include "util/check.hh"

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
    const ConvGeometry g = geometry(h, w);
    Tensor y({n, _cout, g.oh(), g.ow()});
    // A quantized conv runs the same fp32 conv as an fp32 one, over its
    // codes dequantized into arena scratch (the exact products q·s) on
    // every call, so no weight copy can go stale after a restore. The
    // forward never materialises a column matrix, so steady-state
    // forwards allocate nothing per image.
    Arena::Scope scope;
    const float *wmat = _weight.value.data();
    if (!_qweight.empty()) {
        float *dq = Arena::local().alloc(
            static_cast<std::size_t>(_qweight.rows * _qweight.cols));
        dequantizeRowsInto(_qweight, dq);
        wmat = dq;
    }
    convForward(g, n, x.data(), wmat,
                _hasBias ? _bias.value.data() : nullptr, y.data());
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
    const ConvGeometry g = geometry(h, w);
    LECA_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n
                   && grad_out.size(1) == _cout && grad_out.size(2) == g.oh()
                   && grad_out.size(3) == g.ow(),
               "Conv2d grad shape ", detail::formatShape(grad_out.shape()),
               " vs forward output [", n, ", ", _cout, ", ", g.oh(), ", ",
               g.ow(), "]");

    Tensor dx({n, _cin, h, w});
    convBackwardData(g, n, grad_out.data(), _weight.value.data(), dx.data());
    _inN = 0;
    if (_fwdFrozen)
        return dx;

    // Per-image partials [cout, kdim (+ db)] live in one arena slab and
    // are folded serially in ascending image order, so every gradient
    // element keeps the serial summation order and nothing here touches
    // the heap.
    const int kdim = _cin * _k * _k;
    const int ldw = kdim + (_hasBias ? 1 : 0);
    Arena::Scope scope;
    float *partials = Arena::local().alloc(
        static_cast<std::size_t>(n) * _cout * ldw);
    convBackwardWeights(g, n, _input.data(), grad_out.data(), _hasBias,
                        partials);
    Tensor dwmat({_cout, kdim});
    float *dwp = dwmat.data();
    for (int i = 0; i < n; ++i)
        for (int co = 0; co < _cout; ++co) {
            const float *dw =
                partials + (static_cast<std::size_t>(i) * _cout + co) * ldw;
            float *acc = dwp + static_cast<std::size_t>(co) * kdim;
            for (int q = 0; q < kdim; ++q)
                acc[q] += dw[q];
            if (_hasBias)
                _bias.grad[static_cast<std::size_t>(co)] += dw[kdim];
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
