/**
 * @file
 * Non-owning, non-allocating callable reference.
 *
 * std::function type-erases by value: constructing one from a lambda
 * whose captures exceed the small-buffer budget (16 bytes in libstdc++)
 * heap-allocates — which put one hidden allocation on *every*
 * parallelFor call and therefore inside every hot
 * kernel (found by tools/leca_analyze.py check `hidden-alloc` and the
 * DenyAllocScope guards; see DESIGN.md §11). FunctionRef erases by
 * reference instead: it stores one void* to the callable and one thunk
 * pointer, so construction and invocation never touch the heap.
 *
 * Lifetime contract: a FunctionRef does not extend the callable's
 * lifetime. It is only safe where the callable provably outlives every
 * invocation — synchronous APIs that finish before returning, like
 * leca::parallelFor and the pool's runChunks.
 * Anything that stores a callable beyond the call (AsyncTask,
 * ServiceThread) keeps taking std::function by value.
 */

#ifndef LECA_UTIL_FUNCTION_REF_HH
#define LECA_UTIL_FUNCTION_REF_HH

#include <type_traits>
#include <utility>

namespace leca {

template <typename Signature>
class FunctionRef;

/**
 * Lightweight view of a callable with signature R(Args...).
 * Trivially copyable; two words; never allocates.
 */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    FunctionRef() = default;

    /** Bind any callable lvalue or temporary. The referenced callable
     *  must outlive every call through this FunctionRef (safe for the
     *  synchronous parallel primitives; see file comment). */
    template <typename Fn,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<Fn>>,
                  FunctionRef>>>
    FunctionRef(Fn &&fn) // NOLINT(bugprone-forwarding-reference-overload)
        : _callable(const_cast<void *>(static_cast<const void *>(
              std::addressof(fn)))),
          _invoke(&invokeImpl<std::remove_reference_t<Fn>>)
    {
    }

    /** True when bound to a callable. */
    explicit operator bool() const { return _invoke != nullptr; }

    R
    operator()(Args... args) const
    {
        return _invoke(_callable, std::forward<Args>(args)...);
    }

  private:
    template <typename Fn>
    static R
    invokeImpl(void *callable, Args... args)
    {
        return (*static_cast<Fn *>(callable))(std::forward<Args>(args)...);
    }

    void *_callable = nullptr;
    R (*_invoke)(void *, Args...) = nullptr;
};

} // namespace leca

#endif // LECA_UTIL_FUNCTION_REF_HH
