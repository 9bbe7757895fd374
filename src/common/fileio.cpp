/**
 * @file
 * Implementation of the atomic file IO helpers.
 */
#include "common/fileio.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.hpp"

namespace fs = std::filesystem;

namespace dota {

void
setError(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
}

bool
writeFileAtomic(const std::string &path, const std::string &bytes,
                std::string *error)
{
    // The temp file must live on the same filesystem as the target so
    // the rename is atomic; a sibling name guarantees that.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            setError(error, format("cannot open '{}' for writing: {}",
                                   tmp, std::strerror(errno)));
            return false;
        }
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            setError(error, format("write to '{}' failed: {}", tmp,
                                   std::strerror(errno)));
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, format("rename '{}' -> '{}' failed: {}", tmp,
                               path, std::strerror(errno)));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out, std::string *error)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        setError(error, format("cannot open '{}' for reading: {}", path,
                               std::strerror(errno)));
        return false;
    }
    const std::streamsize size = is.tellg();
    is.seekg(0);
    out.resize(static_cast<size_t>(size));
    is.read(out.data(), size);
    if (!is) {
        setError(error, format("read from '{}' failed", path));
        return false;
    }
    return true;
}

std::vector<std::string>
listFiles(const std::string &dir, const std::string &prefix)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

bool
ensureDir(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    return !ec && fs::is_directory(dir, ec);
}

bool
removeFile(const std::string &path)
{
    std::error_code ec;
    fs::remove(path, ec);
    return !fs::exists(path, ec);
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return fs::exists(path, ec);
}

} // namespace dota
