"""Built-in communication function blocks, defined in the language itself.

The bodies call runtime intrinsics (connectRequest, disconnect, isConnected,
sendData, rcvData, thisBlock, rcvError) that only make sense inside the
system-level semantics; user code gets these blocks by instantiating
CONNECT, USEND, and URCV like any other block.  The blocks are parsed
once per process, when this module is imported.
"""

from __future__ import annotations

from .parser import parse_file

# Callable intrinsics and their arities.  All but thisBlock are
# communication calls, which the system layer answers.
INTRINSIC_ARITY = {
    "connectRequest": 1,
    "disconnect": 1,
    "isConnected": 1,
    "sendData": 4,
    "rcvData": 3,
    "thisBlock": 0,
}
COMM_INTRINSICS = frozenset(INTRINSIC_ARITY) - {"thisBlock"}

# Nullary intrinsics usable without parentheses in expression position.
INTRINSIC_NAMES = {"thisBlock", "rcvError"}

CONNECT_SRC = """
FUNCTION_BLOCK CONNECT
    VAR_INPUT
        ENC : BOOL;
        PARTNER : STRING;
    END_VAR
    VAR_OUTPUT
        VALID : BOOL := FALSE;
        ERROR : BOOL := FALSE;
        STATUS : DINT := 0;
        ID : STRING;
    END_VAR
    IF ENC = TRUE THEN
        connectRequest(PARTNER);
    END_IF;
    IF VALID AND NOT ENC THEN
        disconnect(PARTNER);
    END_IF;
    IF isConnected(PARTNER) THEN
        VALID := TRUE;
        ERROR := FALSE;
        STATUS := 0;
        ID := PARTNER;
    ELSE
        VALID := FALSE;
        ERROR := TRUE;
        STATUS := 1;
    END_IF;
END_FUNCTION_BLOCK
"""

USEND_SRC = """
FUNCTION_BLOCK USEND
    VAR_INPUT
        REQ : BOOL;
        COMM : STRING;
        RID : STRING;
        DATA : ANY;
    END_VAR
    VAR_OUTPUT
        DONE : BOOL := FALSE;
        ERROR : BOOL := FALSE;
        STATUS : DINT := 0;
    END_VAR
    VAR
        THIS : STRING;
        RESULT : BOOL := FALSE;
    END_VAR
    IF RESULT THEN
        DONE := FALSE;
        ERROR := FALSE;
        STATUS := 0;
    END_IF;
    IF isConnected(COMM) = FALSE THEN
        DONE := FALSE;
        ERROR := TRUE;
        STATUS := 1;
    END_IF;
    THIS := thisBlock;
    RESULT := sendData(COMM, THIS, RID, DATA);
    IF RESULT THEN
        DONE := TRUE;
        ERROR := FALSE;
        STATUS := 0;
    END_IF;
END_FUNCTION_BLOCK
"""

URCV_SRC = """
FUNCTION_BLOCK URCV
    VAR_INPUT
        ENR : BOOL;
        ID : STRING;
        RID : STRING;
    END_VAR
    VAR_OUTPUT
        NDR : BOOL := FALSE;
        ERROR : BOOL := FALSE;
        STATUS : DINT := 0;
        DATA : ANY;
    END_VAR
    VAR
        THIS : STRING;
        RESULT : ANY;
    END_VAR
    IF NDR THEN
        NDR := FALSE;
        ERROR := FALSE;
        STATUS := 0;
        RETURN ;
    END_IF;
    IF isConnected(ID) = FALSE THEN
        ERROR := TRUE;
        STATUS := 1;
    END_IF;
    THIS := thisBlock;
    RESULT := rcvData(ID, RID, THIS);
    IF RESULT <> rcvError THEN
        NDR := TRUE;
        ERROR := FALSE;
        STATUS := 0;
        DATA := RESULT;
    ELSE
        NDR := FALSE;
        ERROR := TRUE;
        STATUS := 1;
    END_IF;
END_FUNCTION_BLOCK
"""


# Parsed once per process: the trees are immutable, so every table shares them.
_POUS = {pou.name: pou for src in (CONNECT_SRC, USEND_SRC, URCV_SRC) for pou in parse_file(src)}


def builtin_pous() -> dict:
    """name -> Pou of the built-in blocks, in a fresh dict."""
    return dict(_POUS)
