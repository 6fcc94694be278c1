#include "protocol.hpp"

#include <cctype>
#include <cstdlib>

namespace qc::daemon {

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string current;
    for (char c : line) {
        if (c == ' ' || c == '\t') {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        tokens.push_back(current);
    return tokens;
}

std::string
tokenSafe(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text)
        out.push_back(
            c == ' ' || c == '\n' || c == '\t' ? '_' : c);
    return out;
}

std::string
Request::get(const std::string &key, const std::string &fallback) const
{
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
}

long long
Request::getInt(const std::string &key, long long fallback) const
{
    auto it = args.find(key);
    if (it == args.end() || it->second.empty())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        return fallback;
    return value;
}

Request
parseRequest(const std::string &line)
{
    Request req;
    std::vector<std::string> tokens = splitTokens(line);
    if (tokens.empty())
        return req;

    req.command = tokens.front();
    for (char &c : req.command)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));

    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            req.args[tok] = "1"; // bare flag
        else
            req.args[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return req;
}

} // namespace qc::daemon
