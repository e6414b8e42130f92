// Small string helpers shared by config parsing and report rendering.
#pragma once

#include <charconv>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace faaspart::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string trim(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

namespace detail {

template <typename T>
inline constexpr bool kStrfCharLike =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char> || std::is_same_v<T, wchar_t> ||
    std::is_same_v<T, char8_t> || std::is_same_v<T, char16_t> ||
    std::is_same_v<T, char32_t>;

/// Types strf appends as text without a stream.
template <typename T>
inline constexpr bool kStrfAppendsText =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<T, const char*> || std::is_same_v<T, char*>;

/// Types strf formats with std::to_chars: integers that an ostream prints
/// as plain decimal (not bool, not the character types).
template <typename T>
inline constexpr bool kStrfToChars =
    std::is_integral_v<T> && !std::is_same_v<T, bool> && !kStrfCharLike<T>;

class StrfBuilder {
 public:
  template <typename Arg>
  void put(Arg&& arg) {
    using T = std::decay_t<Arg>;
    if constexpr (kStrfAppendsText<T>) {
      out_ += arg;
    } else if constexpr (kStrfToChars<T>) {
      char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19
      const auto res = std::to_chars(buf, buf + sizeof buf, arg);
      out_.append(buf, res.ptr);
    } else {
      // One stream per call, so manipulators still reach later streamed
      // arguments as they did when every argument went through it.
      if (!os_) os_.emplace();
      os_->str(std::string());
      *os_ << std::forward<Arg>(arg);
      out_ += os_->view();
    }
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  std::optional<std::ostringstream> os_;
};

}  // namespace detail

/// Concatenating formatter: strf("x=", 3, " y=", 4.5) == "x=3 y=4.5".
/// Each argument renders byte-identically to `std::ostringstream() << arg`
/// (tests/test_util_strings.cpp pins the parity per type), but strings and
/// integers skip the stream, so a manipulator argument such as
/// std::setw only affects the streamed arguments after it.
template <typename... Args>
std::string strf(Args&&... args) {
  detail::StrfBuilder b;
  (b.put(std::forward<Args>(args)), ...);
  return b.take();
}

/// Fixed-precision double → string ("3.14" for fixed(3.14159, 2)).
std::string fixed(double v, int precision);

}  // namespace faaspart::util
