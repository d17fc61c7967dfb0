#include "tensor.hh"

#include <numeric>
#include <utility>

#include "util/check.hh"

namespace leca {

namespace {

std::size_t
shapeProduct(const std::vector<int> &shape)
{
    std::size_t n = 1;
    for (int d : shape) {
        LECA_CHECK(d >= 0, "negative tensor extent ", d);
        n *= static_cast<std::size_t>(d);
    }
    return n;
}

// ---- Recycled-buffer pool (DESIGN.md §11) ---------------------------
//
// Every Tensor owns a std::vector<float> (data) and a std::vector<int>
// (shape), so a training step or a served batch that creates and drops
// a few dozen same-shaped tensors used to perform a few dozen matching
// heap round-trips — the dominant steady-state allocation source the
// DenyAllocScope guards flagged once kernel scratch moved to the
// Arena. Destroyed tensors now donate their storage to a per-thread
// pool and constructors take a best-fit buffer back out, so warm
// construct/destroy cycles recycle capacity instead of touching the
// heap. Values are never reused (every acquire is followed by an
// assign/resize that overwrites), so determinism is untouched.
//
// The pool is capped (slots and total floats); anything beyond the cap
// frees normally. Under AddressSanitizer the pool is disabled so
// use-after-free coverage of tensor storage stays exactly as it was.

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kPoolCompiledIn = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kPoolCompiledIn = false;
#else
constexpr bool kPoolCompiledIn = true;
#endif
#else
constexpr bool kPoolCompiledIn = true;
#endif

template <typename T>
class BufferPool
{
  public:
    /** Slots scanned linearly on acquire; small enough to stay cheap,
     *  large enough for the live set of a train step or serve batch. */
    static constexpr std::size_t kMaxSlots = 128;

    ~BufferPool()
    {
        if (_deadFlag != nullptr)
            *_deadFlag = true;
    }

    void
    bindDeadFlag(bool *flag)
    {
        _deadFlag = flag;
    }

    /**
     * Move the best-fit buffer with capacity >= n out of the pool into
     * @p out (freeing what @p out held); leaves @p out alone when
     * nothing fits — the caller's assign then allocates exactly as it
     * would have without the pool.
     */
    void
    acquireInto(std::vector<T> &out, std::size_t n)
    {
        std::size_t best = _count;
        for (std::size_t i = 0; i < _count; ++i) {
            if (_slots[i].capacity() < n)
                continue;
            if (best == _count
                || _slots[i].capacity() < _slots[best].capacity())
                best = i;
        }
        if (best == _count)
            return;
        _totalElems -= _slots[best].capacity();
        out = std::move(_slots[best]);
        _slots[best] = std::move(_slots[--_count]);
    }

    /** Donate a buffer; drops it (normal free) when the pool is full
     *  or the buffer is empty or oversized. */
    void
    retire(std::vector<T> &&buffer)
    {
        if (buffer.capacity() == 0)
            return;
        if (_count == kMaxSlots || buffer.capacity() > kMaxBufferElems
            || _totalElems + buffer.capacity() > kMaxTotalElems)
            return; // vector destructor frees it
        _totalElems += buffer.capacity();
        _slots[_count++] = std::move(buffer);
    }

  private:
    /** Per-buffer cap: 64 Mi elements. */
    static constexpr std::size_t kMaxBufferElems = std::size_t{1} << 26;
    /** Per-thread cap on pooled elements: 128 Mi. */
    static constexpr std::size_t kMaxTotalElems = std::size_t{1} << 27;

    std::vector<T> _slots[kMaxSlots];
    std::size_t _count = 0;
    std::size_t _totalElems = 0;
    bool *_deadFlag = nullptr;
};

/**
 * The calling thread's pool, guarded against the thread_local
 * destruction-order fiasco: t_poolDead is trivially destructible (so
 * it outlives every other thread_local), and the pool destructor
 * flips it, after which retirements fall back to plain frees.
 */
template <typename T>
BufferPool<T> *
localPool()
{
    static thread_local bool t_poolDead = false;
    if (t_poolDead)
        return nullptr;
    static thread_local BufferPool<T> t_pool;
    t_pool.bindDeadFlag(&t_poolDead);
    return &t_pool;
}

/** Fill @p out with n elements of @p value, recycling pooled capacity. */
template <typename T>
void
pooledAssign(std::vector<T> &out, std::size_t n, T value)
{
    if (kPoolCompiledIn && out.capacity() < n) {
        if (BufferPool<T> *pool = localPool<T>())
            pool->acquireInto(out, n);
    }
    out.assign(n, value);
}

/** Copy [first, last) into @p out, recycling pooled capacity. */
template <typename T>
void
pooledCopy(std::vector<T> &out, const T *first, const T *last)
{
    const std::size_t n = static_cast<std::size_t>(last - first);
    if (kPoolCompiledIn && out.capacity() < n) {
        if (BufferPool<T> *pool = localPool<T>())
            pool->acquireInto(out, n);
    }
    out.assign(first, last);
}

template <typename T>
void
retireBuffer(std::vector<T> &&buffer)
{
    if (!kPoolCompiledIn)
        return;
    if (BufferPool<T> *pool = localPool<T>())
        pool->retire(std::move(buffer));
}

} // namespace

Tensor::~Tensor()
{
    retireBuffer(std::move(_data));
    retireBuffer(std::move(_shape));
}

Tensor::Tensor(const std::vector<int> &shape)
{
    pooledCopy(_shape, shape.data(), shape.data() + shape.size());
    pooledAssign(_data, shapeProduct(_shape), 0.0f);
}

Tensor::Tensor(std::initializer_list<int> shape)
{
    pooledCopy(_shape, shape.begin(), shape.end());
    pooledAssign(_data, shapeProduct(_shape), 0.0f);
}

Tensor &
Tensor::operator=(Tensor &&other) noexcept
{
    _shape.swap(other._shape);
    _data.swap(other._data);
    std::swap(_borrowed, other._borrowed);
    std::swap(_borrowedSize, other._borrowedSize);
    return *this;
}

Tensor
Tensor::zeros(const std::vector<int> &shape)
{
    return Tensor(shape);
}

Tensor
Tensor::zeros(std::initializer_list<int> shape)
{
    return Tensor(shape);
}

Tensor
Tensor::full(const std::vector<int> &shape, float value)
{
    Tensor t(shape);
    t.fill(value);
    return t;
}

Tensor
Tensor::fromData(std::vector<int> shape, std::vector<float> data)
{
    LECA_CHECK(shapeProduct(shape) == data.size(),
               "data size ", data.size(), " does not match shape ",
               detail::formatShape(shape));
    Tensor t;
    t._shape = std::move(shape);
    t._data = std::move(data);
    return t;
}

Tensor
Tensor::borrow(std::vector<int> shape, const float *data)
{
    LECA_CHECK(data != nullptr || shapeProduct(shape) == 0,
               "borrow of null storage for non-empty shape ",
               detail::formatShape(shape));
    Tensor t;
    t._borrowedSize = shapeProduct(shape);
    t._shape = std::move(shape);
    t._borrowed = data;
    return t;
}

Tensor
Tensor::borrow(std::initializer_list<int> shape, const float *data)
{
    Tensor t;
    pooledCopy(t._shape, shape.begin(), shape.end());
    LECA_CHECK(data != nullptr || shapeProduct(t._shape) == 0,
               "borrow of null storage for non-empty shape ",
               detail::formatShape(t._shape));
    t._borrowedSize = shapeProduct(t._shape);
    t._borrowed = data;
    return t;
}

Tensor::Tensor(const Tensor &other)
{
    pooledCopy(_shape, other._shape.data(),
               other._shape.data() + other._shape.size());
    // Copying a borrowed view materialises an owning tensor, so the
    // copy never outlives the storage it was viewing.
    if (other._borrowed)
        pooledCopy(_data, other._borrowed,
                   other._borrowed + other._borrowedSize);
    else
        pooledCopy(_data, other._data.data(),
                   other._data.data() + other._data.size());
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    pooledCopy(_shape, other._shape.data(),
               other._shape.data() + other._shape.size());
    if (other._borrowed)
        pooledCopy(_data, other._borrowed,
                   other._borrowed + other._borrowedSize);
    else
        pooledCopy(_data, other._data.data(),
                   other._data.data() + other._data.size());
    _borrowed = nullptr;
    _borrowedSize = 0;
    return *this;
}

float *
Tensor::data()
{
    LECA_CHECK(!_borrowed, "mutable access to a borrowed tensor view");
    return _data.data();
}

int
Tensor::size(int d) const
{
    if (d < 0)
        d += dim();
    LECA_CHECK(d >= 0 && d < dim(), "dimension ", d, " out of range for rank-",
               dim(), " tensor");
    return _shape[static_cast<std::size_t>(d)];
}

float &
Tensor::at(int i)
{
    LECA_CHECK(!_borrowed, "mutable access to a borrowed tensor view");
    LECA_CHECK(dim() == 1, "rank-1 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0], "index ", i, " out of range");
    return _data[static_cast<std::size_t>(i)];
}

float
Tensor::at(int i) const
{
    LECA_CHECK(dim() == 1, "rank-1 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0], "index ", i, " out of range");
    return data()[static_cast<std::size_t>(i)];
}

float &
Tensor::at(int i, int j)
{
    LECA_CHECK(!_borrowed, "mutable access to a borrowed tensor view");
    LECA_CHECK(dim() == 2, "rank-2 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0] && j >= 0 && j < _shape[1],
               "index (", i, ", ", j, ") out of range");
    return _data[static_cast<std::size_t>(i) * _shape[1] + j];
}

float
Tensor::at(int i, int j) const
{
    LECA_CHECK(dim() == 2, "rank-2 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0] && j >= 0 && j < _shape[1],
               "index (", i, ", ", j, ") out of range");
    return data()[static_cast<std::size_t>(i) * _shape[1] + j];
}

float &
Tensor::at(int i, int j, int k)
{
    LECA_CHECK(!_borrowed, "mutable access to a borrowed tensor view");
    LECA_CHECK(dim() == 3, "rank-3 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0] && j >= 0 && j < _shape[1] && k >= 0
                   && k < _shape[2],
               "index (", i, ", ", j, ", ", k, ") out of range");
    return _data[(static_cast<std::size_t>(i) * _shape[1] + j) * _shape[2]
                 + k];
}

float
Tensor::at(int i, int j, int k) const
{
    LECA_CHECK(dim() == 3, "rank-3 access on rank-", dim(), " tensor");
    LECA_CHECK(i >= 0 && i < _shape[0] && j >= 0 && j < _shape[1] && k >= 0
                   && k < _shape[2],
               "index (", i, ", ", j, ", ", k, ") out of range");
    return data()[(static_cast<std::size_t>(i) * _shape[1] + j) * _shape[2]
                  + k];
}

std::size_t
Tensor::flatIndex(int n, int c, int h, int w) const
{
    return ((static_cast<std::size_t>(n) * _shape[1] + c) * _shape[2] + h)
           * _shape[3] + w;
}

float &
Tensor::at(int n, int c, int h, int w)
{
    LECA_CHECK(!_borrowed, "mutable access to a borrowed tensor view");
    LECA_CHECK(dim() == 4, "rank-4 access on rank-", dim(), " tensor");
    LECA_CHECK(n >= 0 && n < _shape[0] && c >= 0 && c < _shape[1] && h >= 0
                   && h < _shape[2] && w >= 0 && w < _shape[3],
               "index (", n, ", ", c, ", ", h, ", ", w, ") out of range");
    return _data[flatIndex(n, c, h, w)];
}

float
Tensor::at(int n, int c, int h, int w) const
{
    LECA_CHECK(dim() == 4, "rank-4 access on rank-", dim(), " tensor");
    LECA_CHECK(n >= 0 && n < _shape[0] && c >= 0 && c < _shape[1] && h >= 0
                   && h < _shape[2] && w >= 0 && w < _shape[3],
               "index (", n, ", ", c, ", ", h, ", ", w, ") out of range");
    return data()[flatIndex(n, c, h, w)];
}

void
Tensor::fill(float value)
{
    LECA_CHECK(!_borrowed, "fill on a borrowed tensor view");
    std::fill(_data.begin(), _data.end(), value);
}

Tensor
Tensor::reshape(const std::vector<int> &new_shape) const
{
    return reshapeFrom(new_shape.data(),
                       new_shape.data() + new_shape.size());
}

Tensor
Tensor::reshape(std::initializer_list<int> new_shape) const
{
    return reshapeFrom(new_shape.begin(), new_shape.end());
}

Tensor
Tensor::reshapeFrom(const int *first, const int *last) const
{
    Tensor t;
    pooledCopy(t._shape, first, last);
    std::vector<int> &shape = t._shape;
    int infer = -1;
    std::size_t known = 1;
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (shape[i] == -1) {
            LECA_CHECK(infer < 0, "multiple -1 extents in reshape ",
                       detail::formatShape(shape));
            infer = static_cast<int>(i);
        } else {
            known *= static_cast<std::size_t>(shape[i]);
        }
    }
    if (infer >= 0) {
        LECA_CHECK(known > 0 && numel() % known == 0,
                   "cannot infer reshape extent: ", numel(),
                   " elements over ", known);
        shape[static_cast<std::size_t>(infer)] =
            static_cast<int>(numel() / known);
    }
    LECA_CHECK(shapeProduct(shape) == numel(),
               "reshape to ", detail::formatShape(shape),
               " changes element count from ", numel());
    pooledCopy(t._data, data(), data() + numel());
    return t;
}

Tensor &
Tensor::operator+=(const Tensor &other)
{
    LECA_CHECK(!_borrowed, "accumulate into a borrowed tensor view");
    LECA_CHECK_SAME_SHAPE(*this, other);
    const float *src = other.data();
    for (std::size_t i = 0; i < _data.size(); ++i)
        _data[i] += src[i];
    return *this;
}

Tensor &
Tensor::operator*=(float scale)
{
    LECA_CHECK(!_borrowed, "scale a borrowed tensor view");
    for (float &v : _data)
        v *= scale;
    return *this;
}

} // namespace leca
