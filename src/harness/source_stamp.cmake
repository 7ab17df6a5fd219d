# Writes OUT, a C++ source defining trt::kSourceStamp: a SHA-256 over
# the relative path and content of every .cc/.hh file under ROOT. The
# run-cache fingerprint hashes it, so any simulator source change
# re-keys cached results, and two builds of one tree agree.
#
#   cmake -DROOT=<src dir> -DOUT=<file> -P source_stamp.cmake
file(GLOB_RECURSE files RELATIVE "${ROOT}" "${ROOT}/*.cc" "${ROOT}/*.hh")
list(SORT files)
set(manifest "")
foreach(f IN LISTS files)
    file(SHA256 "${ROOT}/${f}" h)
    string(APPEND manifest "${f} ${h}\n")
endforeach()
string(SHA256 stamp "${manifest}")
# Rewritten only on change, so an unchanged stamp relinks nothing.
file(WRITE "${OUT}.tmp"
     "namespace trt\n{\nextern const char kSourceStamp[];\n"
     "const char kSourceStamp[] = \"${stamp}\";\n} // namespace trt\n")
execute_process(COMMAND "${CMAKE_COMMAND}" -E copy_if_different
                "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
