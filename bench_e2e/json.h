/**
 * @file
 * A minimal JSON reader, enough for the self-test to read
 * BENCHMARK.json (objects, arrays, strings without escapes beyond \" and
 * \\, numbers, booleans, null).
 */

#ifndef BENCH_E2E_JSON_H
#define BENCH_E2E_JSON_H

#include <map>
#include <string>
#include <vector>

namespace bench {

/** A parsed value; numbers, booleans and null are checked, not kept. */
struct JsonValue
{
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    /** Member @p key of an object (a Null value when absent). */
    const JsonValue &operator[](const std::string &key) const;
};

/** Parse @p text; false (with @p err) on malformed input. */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

} // namespace bench

#endif // BENCH_E2E_JSON_H
