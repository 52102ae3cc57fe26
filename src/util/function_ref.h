// Non-owning reference to a callable, for callback parameters.
//
// A std::function parameter copies its argument into owned storage, and a
// closure larger than its 16-byte inline buffer costs a heap allocation per
// call. The block cache takes a writeback callback on every block insert
// and write, so that cost would be paid per block. FunctionRef instead holds
// the callable's address and a typed trampoline: two words, no allocation,
// no copy.
//
// It is a parameter type only. The referenced callable must outlive the
// call it is passed to, which a lambda written at the call site or a named
// local always does; never store a FunctionRef in a member or return one.
// A default-constructed or nullptr FunctionRef is empty and tests false.

#ifndef SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_
#define SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace sprite {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() noexcept = default;
  FunctionRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        !std::is_function_v<std::remove_reference_t<F>> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : callable_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_(&Invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const { return invoke_(callable_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  template <typename F>
  static R Invoke(void* callable, Args... args) {
    return (*static_cast<F*>(callable))(std::forward<Args>(args)...);
  }

  void* callable_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_
