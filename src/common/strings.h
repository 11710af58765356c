// Small string helpers: printf-style formatting (no std::format on GCC 12),
// join, and numeric rendering used by the table printers.
#pragma once

#include <string>
#include <vector>

namespace sparktune {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

bool StartsWith(const std::string& s, const std::string& prefix);

// Render a double with `digits` significant decimals, trimming trailing
// zeros ("12.50" -> "12.5", "3.00" -> "3").
std::string PrettyDouble(double v, int digits = 4);

}  // namespace sparktune
