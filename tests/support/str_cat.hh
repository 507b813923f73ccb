/**
 * @file
 * strCat: build a test string from literals and integers by appending,
 * e.g. `test::strCat("c", client, "-", op)` for "c3-17".
 *
 * The natural spelling, `"c" + std::to_string(client)`, makes GCC 12
 * at -O3 print false-positive -Wrestrict warnings from inside
 * libstdc++'s `operator+(const char *, std::string &&)`; appending to
 * one string never takes that path.
 */

#ifndef HERMES_TESTS_SUPPORT_STR_CAT_HH
#define HERMES_TESTS_SUPPORT_STR_CAT_HH

#include <string>
#include <type_traits>

namespace hermes::test
{

template <typename... Parts>
std::string
strCat(const Parts &...parts)
{
    std::string out;
    auto append = [&out](const auto &part) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>)
            out += std::to_string(part);
        else
            out += part;
    };
    (append(parts), ...);
    return out;
}

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_STR_CAT_HH
