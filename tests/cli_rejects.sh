#!/bin/sh
# Usage: cli_rejects.sh FLAG COMMAND [ARG...]
#
# Passes when COMMAND exits with status 2 and its output names FLAG:
# a hostile command-line value must be a usage error, never a silent
# run with a wrapped or truncated number.
flag=$1
shift
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 2 ]; then
    echo "cli_rejects: exit status $rc, want 2"
    exit 1
fi
case $out in
  *"$flag"*) exit 0 ;;
esac
echo "cli_rejects: no usage error naming $flag"
exit 1
