//! The OS API surface: the 21 functions profiled in the paper's Table 2.

use std::fmt;

use serde::{Deserialize, Serialize};

/// OS module a function belongs to (Table 2's "Module" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Module {
    /// The core services module (≈ ntdll).
    NtCore,
    /// The base wrappers module (≈ kernel32).
    KBase,
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Module::NtCore => "ntcore",
            Module::KBase => "kbase",
        })
    }
}

/// The 21 public OS API functions, named after their Table 2 analogues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OsApi {
    /// ≈ `NtClose(handle)`.
    NtClose,
    /// ≈ `NtCreateFile(path) -> handle`.
    NtCreateFile,
    /// ≈ `NtOpenFile(path) -> handle`.
    NtOpenFile,
    /// ≈ `NtProtectVirtualMemory(base, len, prot) -> old_prot`.
    NtProtectVirtualMemory,
    /// ≈ `NtQueryVirtualMemory(base) -> prot`.
    NtQueryVirtualMemory,
    /// ≈ `NtReadFile(handle, buf, len) -> n`.
    NtReadFile,
    /// ≈ `NtWriteFile(handle, buf, len) -> n`.
    NtWriteFile,
    /// ≈ `RtlAllocateHeap(size) -> ptr`.
    RtlAllocateHeap,
    /// ≈ `RtlDosPathNameToNtPathName(src, dst) -> status`.
    RtlDosPathToNative,
    /// ≈ `RtlEnterCriticalSection(cs)`.
    RtlEnterCriticalSection,
    /// ≈ `RtlFreeHeap(ptr) -> status`.
    RtlFreeHeap,
    /// ≈ `RtlFreeUnicodeString(str)`.
    RtlFreeUnicodeString,
    /// ≈ `RtlInitAnsiString(str, cstr)`.
    RtlInitAnsiString,
    /// ≈ `RtlInitUnicodeString(str, cstr)`.
    RtlInitUnicodeString,
    /// ≈ `RtlLeaveCriticalSection(cs)`.
    RtlLeaveCriticalSection,
    /// ≈ `RtlUnicodeToMultiByteN(dst, src, maxn) -> n`.
    RtlUnicodeToMultibyte,
    /// ≈ `CloseHandle(handle)`.
    CloseHandle,
    /// ≈ `GetLongPathNameW(src, dst) -> len`.
    GetLongPathName,
    /// ≈ `ReadFile(handle, buf, len) -> n`.
    ReadFile,
    /// ≈ `SetFilePointer(handle, pos) -> old_pos`.
    SetFilePointer,
    /// ≈ `WriteFile(handle, buf, len) -> n`.
    WriteFile,
    /// ≈ `NtSetValueKey(key, value)` — configuration store write.
    NtSetValueKey,
    /// ≈ `NtQueryValueKey(key) -> value` — configuration store read.
    NtQueryValueKey,
    /// ≈ `NtDeleteValueKey(key)` — configuration store delete.
    NtDeleteValueKey,
    /// ≈ `NtEnumerateValueKey(index) -> value` — configuration iteration.
    NtEnumerateValueKey,
}

impl OsApi {
    /// The 21 functions of the paper's Table 2 profile, in table order.
    pub const TABLE2: [OsApi; 21] = [
        OsApi::NtClose,
        OsApi::NtCreateFile,
        OsApi::NtOpenFile,
        OsApi::NtProtectVirtualMemory,
        OsApi::NtQueryVirtualMemory,
        OsApi::NtReadFile,
        OsApi::NtWriteFile,
        OsApi::RtlAllocateHeap,
        OsApi::RtlDosPathToNative,
        OsApi::RtlEnterCriticalSection,
        OsApi::RtlFreeHeap,
        OsApi::RtlFreeUnicodeString,
        OsApi::RtlInitAnsiString,
        OsApi::RtlInitUnicodeString,
        OsApi::RtlLeaveCriticalSection,
        OsApi::RtlUnicodeToMultibyte,
        OsApi::CloseHandle,
        OsApi::GetLongPathName,
        OsApi::ReadFile,
        OsApi::SetFilePointer,
        OsApi::WriteFile,
    ];

    /// Every API function, including the registry (configuration) services
    /// that real servers touch at startup only — exactly why the profiling
    /// phase excludes them from the Table 2 selection.
    pub const ALL: [OsApi; 25] = [
        OsApi::NtClose,
        OsApi::NtCreateFile,
        OsApi::NtOpenFile,
        OsApi::NtProtectVirtualMemory,
        OsApi::NtQueryVirtualMemory,
        OsApi::NtReadFile,
        OsApi::NtWriteFile,
        OsApi::RtlAllocateHeap,
        OsApi::RtlDosPathToNative,
        OsApi::RtlEnterCriticalSection,
        OsApi::RtlFreeHeap,
        OsApi::RtlFreeUnicodeString,
        OsApi::RtlInitAnsiString,
        OsApi::RtlInitUnicodeString,
        OsApi::RtlLeaveCriticalSection,
        OsApi::RtlUnicodeToMultibyte,
        OsApi::CloseHandle,
        OsApi::GetLongPathName,
        OsApi::ReadFile,
        OsApi::SetFilePointer,
        OsApi::WriteFile,
        OsApi::NtSetValueKey,
        OsApi::NtQueryValueKey,
        OsApi::NtDeleteValueKey,
        OsApi::NtEnumerateValueKey,
    ];

    /// The linked symbols of [`OsApi::ALL`], in order — the function list
    /// an API-restricted scan walks.
    pub fn symbols() -> Vec<String> {
        OsApi::ALL.iter().map(|f| f.symbol().to_string()).collect()
    }

    /// The linked symbol in the OS image.
    pub fn symbol(self) -> &'static str {
        match self {
            OsApi::NtClose => "nt_close",
            OsApi::NtCreateFile => "nt_create_file",
            OsApi::NtOpenFile => "nt_open_file",
            OsApi::NtProtectVirtualMemory => "nt_protect_virtual_memory",
            OsApi::NtQueryVirtualMemory => "nt_query_virtual_memory",
            OsApi::NtReadFile => "nt_read_file",
            OsApi::NtWriteFile => "nt_write_file",
            OsApi::RtlAllocateHeap => "rtl_allocate_heap",
            OsApi::RtlDosPathToNative => "rtl_dos_path_to_native",
            OsApi::RtlEnterCriticalSection => "rtl_enter_critical_section",
            OsApi::RtlFreeHeap => "rtl_free_heap",
            OsApi::RtlFreeUnicodeString => "rtl_free_unicode_string",
            OsApi::RtlInitAnsiString => "rtl_init_ansi_string",
            OsApi::RtlInitUnicodeString => "rtl_init_unicode_string",
            OsApi::RtlLeaveCriticalSection => "rtl_leave_critical_section",
            OsApi::RtlUnicodeToMultibyte => "rtl_unicode_to_multibyte",
            OsApi::CloseHandle => "close_handle",
            OsApi::GetLongPathName => "get_long_path_name",
            OsApi::ReadFile => "read_file",
            OsApi::SetFilePointer => "set_file_pointer",
            OsApi::WriteFile => "write_file",
            OsApi::NtSetValueKey => "nt_set_value_key",
            OsApi::NtQueryValueKey => "nt_query_value_key",
            OsApi::NtDeleteValueKey => "nt_delete_value_key",
            OsApi::NtEnumerateValueKey => "nt_enumerate_value_key",
        }
    }

    /// The paper's Table 2 function-name analogue.
    pub fn paper_name(self) -> &'static str {
        match self {
            OsApi::NtClose => "NtClose",
            OsApi::NtCreateFile => "NtCreateFile",
            OsApi::NtOpenFile => "NtOpenFile",
            OsApi::NtProtectVirtualMemory => "NtProtectVirtualMemory",
            OsApi::NtQueryVirtualMemory => "NtQueryVirtualMemory",
            OsApi::NtReadFile => "NtReadFile",
            OsApi::NtWriteFile => "NtWriteFile",
            OsApi::RtlAllocateHeap => "RtlAllocateHeap",
            OsApi::RtlDosPathToNative => "RtlDosPathNameToNtPathName",
            OsApi::RtlEnterCriticalSection => "RtlEnterCriticalSection",
            OsApi::RtlFreeHeap => "RtlFreeHeap",
            OsApi::RtlFreeUnicodeString => "RtlFreeUnicodeString",
            OsApi::RtlInitAnsiString => "RtlInitAnsiString",
            OsApi::RtlInitUnicodeString => "RtlInitUnicodeString",
            OsApi::RtlLeaveCriticalSection => "RtlLeaveCriticalSection",
            OsApi::RtlUnicodeToMultibyte => "RtlUnicodeToMultiByteN",
            OsApi::CloseHandle => "CloseHandle",
            OsApi::GetLongPathName => "GetLongPathNameW",
            OsApi::ReadFile => "ReadFile",
            OsApi::SetFilePointer => "SetFilePointer",
            OsApi::WriteFile => "WriteFile",
            OsApi::NtSetValueKey => "NtSetValueKey",
            OsApi::NtQueryValueKey => "NtQueryValueKey",
            OsApi::NtDeleteValueKey => "NtDeleteValueKey",
            OsApi::NtEnumerateValueKey => "NtEnumerateValueKey",
        }
    }

    /// The module hosting the function.
    pub fn module(self) -> Module {
        match self {
            OsApi::CloseHandle
            | OsApi::GetLongPathName
            | OsApi::ReadFile
            | OsApi::SetFilePointer
            | OsApi::WriteFile => Module::KBase,
            _ => Module::NtCore,
        }
    }

    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            OsApi::NtClose
            | OsApi::NtQueryVirtualMemory
            | OsApi::RtlAllocateHeap
            | OsApi::RtlEnterCriticalSection
            | OsApi::RtlFreeHeap
            | OsApi::RtlFreeUnicodeString
            | OsApi::RtlLeaveCriticalSection
            | OsApi::CloseHandle
            | OsApi::NtCreateFile
            | OsApi::NtOpenFile
            | OsApi::NtQueryValueKey
            | OsApi::NtDeleteValueKey
            | OsApi::NtEnumerateValueKey => 1,
            OsApi::RtlDosPathToNative
            | OsApi::RtlInitAnsiString
            | OsApi::RtlInitUnicodeString
            | OsApi::GetLongPathName
            | OsApi::SetFilePointer
            | OsApi::NtSetValueKey => 2,
            OsApi::NtProtectVirtualMemory
            | OsApi::NtReadFile
            | OsApi::NtWriteFile
            | OsApi::RtlUnicodeToMultibyte
            | OsApi::ReadFile
            | OsApi::WriteFile => 3,
        }
    }

    /// Looks an API function up by its linked symbol.
    pub fn from_symbol(symbol: &str) -> Option<OsApi> {
        OsApi::ALL.into_iter().find(|f| f.symbol() == symbol)
    }
}

impl fmt::Display for OsApi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn twenty_one_functions_like_table_2() {
        assert_eq!(OsApi::TABLE2.len(), 21);
        let symbols: BTreeSet<&str> = OsApi::TABLE2.iter().map(|f| f.symbol()).collect();
        assert_eq!(symbols.len(), 21);
        let papers: BTreeSet<&str> = OsApi::ALL.iter().map(|f| f.paper_name()).collect();
        assert_eq!(papers.len(), OsApi::ALL.len());
        // TABLE2 is a subset of ALL.
        for f in OsApi::TABLE2 {
            assert!(OsApi::ALL.contains(&f));
        }
    }

    #[test]
    fn module_split_matches_table_2() {
        let ntcore = OsApi::TABLE2
            .iter()
            .filter(|f| f.module() == Module::NtCore)
            .count();
        let kbase = OsApi::TABLE2
            .iter()
            .filter(|f| f.module() == Module::KBase)
            .count();
        assert_eq!(ntcore, 16);
        assert_eq!(kbase, 5);
        // Registry services live in ntcore.
        assert_eq!(OsApi::NtQueryValueKey.module(), Module::NtCore);
    }

    #[test]
    fn from_symbol_roundtrip() {
        for f in OsApi::ALL {
            assert_eq!(OsApi::from_symbol(f.symbol()), Some(f));
        }
        assert_eq!(OsApi::from_symbol("nope"), None);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(OsApi::RtlAllocateHeap.to_string(), "RtlAllocateHeap");
        assert_eq!(Module::NtCore.to_string(), "ntcore");
    }
}
